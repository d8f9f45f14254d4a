(* sim-batch: a sample of the figpareto population, which is every
   feasible solution of the six heuristics and s-MP (s = 2) on
   12-communication mixed workloads on the 8x8 CMP. Workload k
   contributes the first feasible solution of the seven heuristics tried
   from the (k mod 7)-th on, so the heuristics take turns, and one
   solution per workload lets a pass average over many workloads. The sample is simulated through [Sim.Batch.run] with
   one arena and tolerance 0.1. Routing happens in set-up only; a pass
   simulates the whole sample, one solution per timed call. *)

let model = Power.Model.kim_horowitz
let workloads = 16
let tolerance = 0.1

(* The delivery check needs a window long enough for the rates to
   settle: at 500 measured cycles about one healthy solution in eight
   still reads below 90% of its rate, while at 2000 the verdicts agree
   with [Sim.Validate.run]'s 20 000-cycle default. The early exit ends
   most runs well before the budget. *)
let cycles = 2000
let warmup = cycles / 5

let heuristics =
  Array.of_list (Routing.Heuristic.all @ [ Optim.Smp.heuristic ~name:"SMP" ~s:2 () ])

let population seed =
  let mesh = Noc.Mesh.square 8 in
  let nh = Array.length heuristics in
  List.filter_map
    (fun k ->
      let rng =
        Traffic.Rng.of_key "perfbench-sim" [ Int64.of_int seed; Int64.of_int k ]
      in
      let comms =
        Spans.with_ "traffic.generate" (fun () ->
            Traffic.Workload.uniform rng mesh ~n:12 ~weight:Traffic.Workload.mixed)
      in
      List.init nh (fun i -> heuristics.((k + i) mod nh))
      |> List.find_map (fun (h : Routing.Heuristic.t) ->
             let solution = h.run model mesh comms in
             let report = Routing.Evaluate.solution model solution in
             if report.feasible then Some (solution, report.total_power) else None))
    (List.init workloads Fun.id)

(* One solution, as [Sim.Batch.run] simulates it; traced, the network's
   creation and its run are timed apart. *)
let simulate ~traced arena solution =
  Spans.with_ "sim.batch" @@ fun () ->
  if traced then
    let net =
      Spans.with_ "sim.create" (fun () -> Sim.Network.create ~arena model solution)
    in
    Spans.with_ "sim.run" (fun () ->
        Sim.Network.run ~warmup ~tolerance net ~cycles)
  else
    match Sim.Batch.run ~arena ~warmup ~tolerance ~cycles model [ solution ] with
    | [ report ] -> report
    | _ -> invalid_arg "Sim.Batch.run: one report per solution"

let delivers (r : Sim.Network.report) =
  List.for_all
    (fun (c : Sim.Network.comm_stats) ->
      c.delivered_rate >= (1. -. tolerance) *. c.requested_rate)
    r.comms

let setup seed =
  let population = Array.of_list (population seed) in
  let arena = Sim.Network.Arena.create () in
  fun ~traced record (r : Measure.report) ->
    let failed = ref 0 in
    let simulated = ref 0 and measured = ref 0 and moved = ref 0 in
    let early = ref 0 and p95 = ref 0. and words = ref 0. in
    let outputs = Buffer.create 4096 in
    Array.iteri
      (fun i (solution, _) ->
        Spans.set_event i;
        let w0 = Gc.minor_words () in
        let t0 = Measure.now () in
        let report =
          match simulate ~traced arena solution with
          | rep -> Some rep
          | exception e ->
              Printf.printf "simulation raised: %s\n" (Printexc.to_string e);
              None
        in
        let dt = Measure.seconds_between t0 (Measure.now ()) in
        words := !words +. (Gc.minor_words () -. w0);
        match report with
        | None ->
            record ~seconds:dt ~units:(float_of_int (warmup + cycles));
            incr failed
        | Some rep ->
            record ~seconds:dt ~units:(float_of_int (warmup + rep.cycles));
            Buffer.add_string outputs (Marshal.to_string rep [ Marshal.No_sharing ]);
            simulated := !simulated + warmup + rep.cycles;
            measured := !measured + rep.cycles;
            moved := !moved + rep.flits_moved;
            if rep.early_exit then incr early;
            p95 := !p95 +. rep.latency_p95;
            Measure.check r
              (rep.injected_flits = rep.ejected_flits + rep.in_flight_flits)
              (Printf.sprintf "solution %d: flits not conserved" i);
            if rep.deadlocked || not (delivers rep) then begin
              Printf.printf "solution %d: %s\n" i
                (if rep.deadlocked then "deadlocked" else "under-delivered");
              incr failed
            end)
      population;
    let n = float_of_int (Array.length population) in
    let f = float_of_int in
    {
      Pass.failed = !failed;
      power_mw = Array.fold_left (fun a (_, p) -> a +. p) 0. population /. n;
      success_ratio = (n -. f !failed) /. n;
      exact =
        [
          ("sim.cycles", f !simulated);
          ("sim.flits_moved", f !moved);
          ("sim.early_exit_ratio", f !early /. n);
          ("sim.measured_cycle_ratio", f !measured /. (n *. f cycles));
          ("sim.latency_p95_cycles", !p95 /. n);
        ];
      layer = [ ("sim.minor_words_per_cycle", !words /. f !simulated) ];
      digest = Digest.string (Buffer.contents outputs);
    }

let workload = { Pass.name = "sim-batch"; setup }
