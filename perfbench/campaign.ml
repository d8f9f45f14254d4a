(* campaign-fig7b: [Harness.Runner.run] on the paper's Fig. 7(b) (mixed
   weights U[100, 2500], 5 to 70 communications on the 8x8 CMP) with
   jobs = 1 — the only workload that runs the paper's batch heuristics.

   A pass runs [trials] Monte-Carlo trials at each of the figure's
   points. One [Runner.run] call is one sweep: a trial at every point,
   as the runner makes them, so every timed call does the same mix of
   work. Sweep k of the pass runs under campaign seed [seed * 1000 + k],
   which keys an independent workload per point; set-up draws them. *)

let trials = 16

(* Traced, every heuristic call is a span; the evaluation the runner
   does after it is only visible through the harness's own telemetry. *)
let traced_heuristic (h : Routing.Heuristic.t) =
  {
    h with
    run =
      (fun ?fault model mesh comms ->
        Spans.with_ ("heuristic." ^ h.name) (fun () -> h.run ?fault model mesh comms));
  }

let evaluate_totals file =
  let ic = open_in file in
  let rec go n s =
    match input_line ic with
    | line ->
        let is_eval =
          match Harness.Telemetry.find_field line "cat" with
          | Some i ->
              String.length line >= i + 10 && String.sub line i 10 = "\"evaluate\""
          | None -> false
        in
        if is_eval then
          match Harness.Telemetry.float_field line "dur" with
          | Some d -> go (n + 1) (s +. (d *. 1e-6))
          | None -> go n s
        else go n s
    | exception End_of_file -> (n, s)
  in
  let totals = go 0 0. in
  close_in ic;
  totals

let setup seed =
  (* Every sweep's workloads, drawn as the runner draws them (Fig. 7(b)
     has no fault scenario that would draw after them); each sweep's
     figure hands the runner its drawn workloads, so the timed calls only
     route, evaluate and reduce. *)
  let fig = Harness.Figure.fig7b in
  let sweep k =
    let drawn =
      List.map
        (fun x ->
          let rng =
            Harness.Runner.trial_rng ~figure_id:fig.id
              ~x:(if fig.paired then 0. else x)
              ~seed:((seed * 1000) + k) ~trial:0
          in
          (x, Spans.with_ "traffic.generate" (fun () -> fig.generate rng x)))
        fig.xs
    in
    { fig with generate = (fun _ x -> List.assoc x drawn) }
  in
  let sweeps = Array.init trials sweep in
  let points = float_of_int (List.length fig.xs) in
  fun ~traced record (_ : Measure.report) ->
    let heuristics =
      if traced then List.map traced_heuristic Routing.Heuristic.all
      else Routing.Heuristic.all
    in
    let sink = if traced then Some (Harness.Telemetry.create ()) else None in
    Option.iter
      (fun s ->
        Harness.Telemetry.install s;
        (* The install took over the program's span hook. *)
        Spans.install_hook ())
      sink;
    let failed = ref 0 and feasible = ref 0 and power = ref 0. in
    let outputs = Buffer.create 4096 in
    let before = Routing.Metrics.snapshot () in
    Array.iteri
      (fun k (fig : Harness.Figure.t) ->
        Spans.set_event k;
        let t0 = Measure.now () in
        let res =
          Spans.with_ "harness.runner.run" (fun () ->
              Harness.Runner.run ~trials:1 ~seed:((seed * 1000) + k) ~jobs:1 ~heuristics
                fig)
        in
        let dt = Measure.seconds_between t0 (Measure.now ()) in
        record ~seconds:dt ~units:points;
        Buffer.add_string outputs (Marshal.to_string res.rows [ Marshal.No_sharing ]);
        let sweep_failed = ref false in
        List.iter
          (fun (row : Harness.Runner.row) ->
            let best = List.assoc "BEST" row.cells in
            let errored =
              List.exists (fun (_, (c : Harness.Runner.stats)) -> c.error_ratio > 0.) row.cells
            in
            if errored then begin
              Printf.printf "trial %g/%d errored: %s\n" row.x k
                (Option.value best.error_example ~default:"(in a heuristic)");
              sweep_failed := true
            end;
            (* BEST power per communication: the total grows with the
               point's count, so a plain mean would follow which of the
               larger trials happen to be feasible. *)
            match best.mean_power with
            | Some mw when best.failure_ratio = 0. ->
                incr feasible;
                power := !power +. (mw /. row.x)
            | _ -> ())
          res.rows;
        if !sweep_failed then incr failed)
      sweeps;
    let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
    let evaluate =
      match sink with
      | None -> []
      | Some s ->
          Harness.Telemetry.uninstall ();
          Spans.install_hook ();
          let file = Filename.concat Spans.out_dir "campaign-telemetry.json" in
          ignore (Harness.Telemetry.write_file s file);
          let n, sec = evaluate_totals file in
          [ ("routing.evaluate.calls", float_of_int n); ("routing.evaluate.s", sec) ]
    in
    let f = float_of_int in
    let trials_run = points *. f (Array.length sweeps) in
    {
      Pass.failed = !failed;
      power_mw = (if !feasible = 0 then 0. else !power /. f !feasible);
      success_ratio = f !feasible /. trials_run;
      exact = Counters.exact work;
      layer = evaluate;
      digest = Digest.string (Buffer.contents outputs);
    }

let workload = { Pass.name = "campaign-fig7b"; setup }
