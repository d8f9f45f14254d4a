(* Tests for the optimality substrates: exact branch-and-bound and the
   Frank-Wolfe convex relaxation. *)

let coord row col = Noc.Coord.make ~row ~col
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let km = Power.Model.kim_horowitz
let comm id src snk rate = Traffic.Communication.make ~id ~src ~snk ~rate

let fig2_model = Power.Model.make ~p_leak:0. ~p0:1. ~alpha:3. ~capacity:4. ()

let fig2_comms =
  [ comm 0 (coord 1 1) (coord 2 2) 1.; comm 1 (coord 1 1) (coord 2 2) 3. ]

let test_exact_fig2 () =
  match Optim.Exact.route fig2_model (Noc.Mesh.square 2) fig2_comms with
  | Optim.Exact.Optimal (s, p) ->
      check_float "optimal 1-MP is 56" 56. p;
      check_float "reported power consistent" 56.
        (Routing.Evaluate.power_exn fig2_model s)
  | _ -> Alcotest.fail "expected Optimal"

let test_exact_infeasible () =
  let m = Noc.Mesh.create ~rows:1 ~cols:3 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 3) 3000.; comm 1 (coord 1 1) (coord 1 3) 3000. ]
  in
  check_bool "proved infeasible" true
    (Optim.Exact.route km m comms = Optim.Exact.Infeasible)

let test_exact_truncation () =
  (* A 6x6 instance with a 1-node budget must time out, reporting the node
     count and (here, with a single explored node) no incumbent. *)
  let rng = Traffic.Rng.create 3 in
  let comms =
    Traffic.Workload.uniform rng (Noc.Mesh.square 6) ~n:6
      ~weight:Traffic.Workload.small
  in
  match Optim.Exact.route ~max_nodes:1 km (Noc.Mesh.square 6) comms with
  | Optim.Exact.Timeout { nodes; incumbent } ->
      check_bool "budget respected" true (nodes >= 1);
      check_bool "no incumbent after one node" true (incumbent = None)
  | _ -> Alcotest.fail "expected a timeout"

let brute_force model mesh comms =
  (* Reference implementation: full cartesian enumeration, no pruning. *)
  let rec go acc loads = function
    | [] ->
        let r = Routing.Evaluate.of_loads model loads in
        if r.Routing.Evaluate.feasible then
          match acc with
          | Some p when p <= r.total_power -> acc
          | _ -> Some r.total_power
        else acc
    | (c : Traffic.Communication.t) :: rest ->
        Noc.Path.fold_all
          (fun acc path ->
            Noc.Load.add_path loads path c.rate;
            let acc = go acc loads rest in
            Noc.Load.remove_path loads path c.rate;
            acc)
          acc ~src:c.src ~snk:c.snk
  in
  go None (Noc.Load.create mesh) comms

let prop_exact_matches_brute_force =
  QCheck.Test.make ~name:"branch-and-bound equals brute force on 3x3"
    ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let mesh = Noc.Mesh.square 3 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:4
          ~weight:(Traffic.Workload.weight ~lo:500. ~hi:2500.)
      in
      let reference = brute_force km mesh comms in
      match (Optim.Exact.route km mesh comms, reference) with
      | Optim.Exact.Optimal (_, p), Some p' -> Float.abs (p -. p') < 1e-6
      | Optim.Exact.Infeasible, None -> true
      | _ -> false)

let prop_exact_below_heuristics =
  QCheck.Test.make ~name:"no heuristic beats the exact optimum" ~count:15
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let mesh = Noc.Mesh.square 4 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:5 ~weight:Traffic.Workload.small
      in
      match Optim.Exact.route km mesh comms with
      | Optim.Exact.Optimal (_, p) ->
          List.for_all
            (fun (o : Routing.Best.outcome) ->
              (not o.report.Routing.Evaluate.feasible)
              || p <= o.report.total_power +. 1e-6)
            (Routing.Best.run_all km mesh comms)
      | Optim.Exact.Infeasible ->
          (* Then no heuristic may claim feasibility either. *)
          List.for_all
            (fun (o : Routing.Best.outcome) ->
              not o.report.Routing.Evaluate.feasible)
            (Routing.Best.run_all km mesh comms)
      | Optim.Exact.Timeout _ -> true)

let test_route_solution_wrapper () =
  (match
     Optim.Exact.route_solution fig2_model (Noc.Mesh.square 2) fig2_comms
   with
  | Some s ->
      check_float "wrapper returns the optimum" 56.
        (Routing.Evaluate.power_exn fig2_model s)
  | None -> Alcotest.fail "solvable");
  let m = Noc.Mesh.create ~rows:1 ~cols:3 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 3) 3000.; comm 1 (coord 1 1) (coord 1 3) 3000. ]
  in
  check_bool "None on infeasible" true
    (Optim.Exact.route_solution km m comms = None)

let test_fw_fig2 () =
  let fw =
    Optim.Frank_wolfe.solve fig2_model (Noc.Mesh.square 2) fig2_comms
  in
  (* The max-MP optimum of Figure 2 is 32 (both L-paths at load 2). *)
  check_bool "objective reaches 32" true (Float.abs (fw.objective -. 32.) < 1e-3);
  check_bool "gap closed" true (fw.gap < 1e-3)

let test_fw_single_comm_square () =
  (* One unit communication across a 2x2: optimum splits half/half,
     dynamic power 4 * (1/2)^3 = 0.5. *)
  let model = Power.Model.theory () in
  let comms = [ comm 0 (coord 1 1) (coord 2 2) 1. ] in
  let fw = Optim.Frank_wolfe.solve model (Noc.Mesh.square 2) comms in
  check_bool "0.5 reached" true (Float.abs (fw.objective -. 0.5) < 1e-6)

let prop_fw_bounds_exact_dynamic =
  QCheck.Test.make
    ~name:"FW certified bound is below the exact optimum's dynamic power"
    ~count:10
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let mesh = Noc.Mesh.square 3 in
      let model = Power.Model.kim_horowitz_continuous in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:4 ~weight:Traffic.Workload.small
      in
      let lb = Optim.Frank_wolfe.lower_bound model mesh comms in
      match Optim.Exact.route model mesh comms with
      | Optim.Exact.Optimal (s, _) ->
          let r = Routing.Evaluate.solution model s in
          lb <= r.Routing.Evaluate.dynamic_power +. 1e-6
      | _ -> true)

let prop_fw_objective_decreases =
  QCheck.Test.make ~name:"more FW iterations never increase the objective"
    ~count:10
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let mesh = Noc.Mesh.square 6 in
      let model = Power.Model.theory () in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:6 ~weight:Traffic.Workload.small
      in
      let a = (Optim.Frank_wolfe.solve ~iterations:5 model mesh comms).objective
      and b =
        (Optim.Frank_wolfe.solve ~iterations:50 model mesh comms).objective
      in
      b <= a +. 1e-6)

let test_fw_matches_diagonal_bound_single_pair () =
  (* For a single source/destination pair in a 2x2 the diagonal ideal
     spread is achievable, so FW and the analytic bound coincide. *)
  let model = Power.Model.theory () in
  let mesh = Noc.Mesh.square 2 in
  let comms = [ comm 0 (coord 1 1) (coord 2 2) 4. ] in
  let fw = Optim.Frank_wolfe.solve model mesh comms in
  check_float "coincide"
    (Routing.Multipath.diagonal_lower_bound model mesh comms)
    fw.objective

(* ------------------------------------------------------------------ *)
(* Fractional feasibility certificates *)

let test_min_overload_zero_when_splittable () =
  (* Figure 2 at BW = 4: only a 2-path routing fits; the fractional
     certificate must find it. *)
  check_bool "fig2 fractionally feasible" true
    (Optim.Frank_wolfe.fractionally_feasible fig2_model (Noc.Mesh.square 2)
       fig2_comms)

let test_min_overload_positive_when_hopeless () =
  (* 6000 Mb/s through a single 3500 Mb/s corridor: excess 2500 cannot be
     split away. *)
  let m = Noc.Mesh.create ~rows:1 ~cols:3 in
  let comms =
    [ comm 0 (coord 1 1) (coord 1 3) 3000.; comm 1 (coord 1 1) (coord 1 3) 3000. ]
  in
  let worst, _ = Optim.Frank_wolfe.min_overload km m comms in
  check_bool "irreducible excess" true (Float.abs (worst -. 2500.) < 1.);
  check_bool "declared infeasible" false
    (Optim.Frank_wolfe.fractionally_feasible km m comms)

let prop_single_path_feasible_implies_fractional =
  QCheck.Test.make
    ~name:"any feasible single-path routing implies fractional feasibility"
    ~count:15
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let mesh = Noc.Mesh.square 8 in
      let rng = Traffic.Rng.create seed in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:15
          ~weight:(Traffic.Workload.weight ~lo:200. ~hi:1500.)
      in
      let some_feasible =
        List.exists
          (fun (o : Routing.Best.outcome) ->
            o.report.Routing.Evaluate.feasible)
          (Routing.Best.run_all km mesh comms)
      in
      (not some_feasible)
      || Optim.Frank_wolfe.fractionally_feasible ~iterations:600 km mesh comms)

(* One parser serves the four parameterised engine families: bare name
   for the default, NAME(N) or NAMEN with decimal digits only, any case,
   surrounding whitespace ignored, each family's minimum enforced. A
   spelling resolves in at most one family. *)
let test_family_spellings () =
  let resolve spelling =
    List.filter_map
      (fun find ->
        Option.map (fun h -> h.Routing.Heuristic.name) (find spelling))
      [ Optim.Pathfinder.find; Optim.Recover.find; Optim.Online.find;
        Optim.Smp.find ]
  in
  List.iter
    (fun (spelling, want) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%S" spelling)
        (Option.to_list want) (resolve spelling))
    [
      (* defaults *)
      ("pf", Some "PF32"); ("rec", Some "REC8"); ("srv", Some "SRV8");
      ("smp", Some "SMP4");
      (* NAME(N), NAMEN, case, surrounding whitespace *)
      ("pf(16)", Some "PF16"); ("REC(12)", Some "REC12");
      ("SRV(4)", Some "SRV4"); ("smp(8)", Some "SMP8"); ("Pf8", Some "PF8");
      ("rEc3", Some "REC3"); ("SRV2", Some "SRV2"); ("SmP2", Some "SMP2");
      ("  pf4 ", Some "PF4"); ("\trec0\n", Some "REC0"); (" srv1", Some "SRV1");
      ("smp3 ", Some "SMP3"); ("pf08", Some "PF8");
      (* minimums: pf >= 1, rec >= 0, srv >= 1, smp >= 1 *)
      ("pf0", None); ("pf1", Some "PF1"); ("rec0", Some "REC0");
      ("rec-1", None); ("srv0", None); ("srv1", Some "SRV1"); ("smp0", None);
      ("smp1", Some "SMP1");
      (* non-decimal spellings *)
      ("pf0x10", None); ("pf+3", None); ("rec0b11", None); ("srv1_0", None);
      ("smp0o7", None); ("pf-1", None); ("pf()", None); ("pf(8", None);
      ("pf 8", None); ("rec( 2 )", None); ("pfx", None); ("recx", None);
      ("srvx", None); ("pf99999999999999999999", None);
      (* other names *)
      ("xy", None); ("best", None); ("", None);
    ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "optim"
    [
      ( "exact",
        [
          quick "figure 2" test_exact_fig2;
          quick "infeasible" test_exact_infeasible;
          quick "truncation" test_exact_truncation;
          QCheck_alcotest.to_alcotest prop_exact_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_exact_below_heuristics;
          quick "route_solution wrapper" test_route_solution_wrapper;
        ] );
      ( "frank-wolfe",
        [
          quick "figure 2 relaxation" test_fw_fig2;
          quick "single comm square" test_fw_single_comm_square;
          quick "matches diagonal bound" test_fw_matches_diagonal_bound_single_pair;
          QCheck_alcotest.to_alcotest prop_fw_bounds_exact_dynamic;
          QCheck_alcotest.to_alcotest prop_fw_objective_decreases;
        ] );
      ("registry", [ quick "family spellings" test_family_spellings ]);
      ( "fractional feasibility",
        [
          quick "splittable instance" test_min_overload_zero_when_splittable;
          quick "hopeless instance" test_min_overload_positive_when_hopeless;
          QCheck_alcotest.to_alcotest prop_single_path_feasible_implies_fractional;
        ] );
    ]
