(* The routing layer's exact work counters, as per-layer metrics. *)

let exact (c : Routing.Metrics.counters) =
  let f = float_of_int in
  [
    ("routing.delta_evals", f c.delta_evals);
    ("routing.feasibility_checks", f c.feasibility_checks);
    ("routing.paths_scored", f c.paths_scored);
    ("routing.dp_cells", f c.dp_cells);
    ("routing.pf_iterations", f c.pf_iterations);
    ("routing.pf_rips", f c.pf_rips);
  ]
