(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   One caller on one domain calls the library's public functions in a
   closed loop: set-up builds a fixed instance set from the seed, then
   passes over that set repeat for about S seconds (a warm-up pass and at
   least two timed ones, so every deterministic output is checked to
   repeat exactly). The last stdout line is the JSON result; the exit
   code is 1 when a correctness check failed and 2 on bad arguments.

   With --trace 0 the result carries the end-to-end metrics, measured
   untraced. With --trace 1 it carries the per-layer metrics: half the
   time runs untraced passes (GC totals and the untraced throughput),
   the other half traced ones, whose first spans are written to
   perfbench/_out/. perfbench/METRICS.md says what each metric means on
   each workload. *)

let workloads =
  [ Serve.light_workload; Serve.congested_workload; Sim_batch.workload; Campaign.workload ]

let setup_repeats = 7

(* Every traced run reports the whole catalogue, zero where the
   workload never enters the layer. *)
let per_layer =
  let calls_s base = [ base ^ ".calls"; base ^ ".s" ] in
  List.concat
    [
      calls_s "traffic.generate";
      List.concat
        (List.init 5 (fun i -> calls_s (Printf.sprintf "optim.online.rung%d" (i + 1))));
      [ "optim.online.arrive.s"; "optim.online.depart.s" ];
      List.map (( ^ ) "optim.online.")
        [
          "passes"; "rips"; "reroutes"; "wakes"; "sleeps"; "readmitted";
          "first_try_admit_ratio"; "ladder_rescue_ratio";
          "minor_words_per_event"; "major_words_per_event";
        ];
      List.map (( ^ ) "routing.")
        [
          "delta_evals"; "feasibility_checks"; "paths_scored"; "dp_cells";
          "pf_iterations"; "pf_rips";
        ];
      calls_s "routing.delta_table";
      calls_s "routing.evaluate";
      List.concat_map
        (fun h -> calls_s ("heuristic." ^ h))
        [ "XY"; "SG"; "IG"; "TB"; "XYI"; "PR" ];
      [ "harness.runner.self_s" ];
      calls_s "sim.create";
      calls_s "sim.run";
      List.map (( ^ ) "sim.")
        [
          "cycles"; "flits_moved"; "minor_words_per_cycle"; "early_exit_ratio";
          "measured_cycle_ratio"; "latency_p95_cycles";
        ];
      List.map (( ^ ) "gc.")
        [ "minor_words"; "promoted_words"; "minor_collections"; "major_collections" ];
      List.map (fun l -> "layer." ^ l ^ ".self_s") Spans.layers;
      List.map (( ^ ) "trace.")
        [
          "unaccounted_ratio"; "spans"; "untraced_throughput_per_s";
          "traced_throughput_per_s"; "overhead_ratio";
        ];
    ]

let ends_with s suffix =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let unit_of name =
  let rules =
    [
      ("_per_s", "1/s"); (".s", "s"); ("_s", "s"); ("_ratio", "ratio");
      ("words_per_event", "words"); ("words_per_cycle", "words"); ("_words", "words");
      ("latency_p95_cycles", "cycles"); ("sim.cycles", "cycles"); ("flits_moved", "flits");
    ]
  in
  match List.find_opt (fun (suffix, _) -> ends_with name suffix) rules with
  | Some (_, u) -> u
  | None -> "count"

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One timed pass: its rate (work units over timed seconds) and the
   time per unit of each of its calls, sorted. *)
type timed = { rate : float; per_unit : float array }

(* A run's passes: every pass's outputs, and the timing of every pass
   but the first, which warms the caches up. *)
type timing = { outputs : Pass.t list; timed : timed list }

let sum = Array.fold_left ( +. ) 0.

(* Run one warm-up pass and then timed passes, calling [between] after
   each pass, until at least [min] passes are timed and one more would
   end past [seconds]. Every pass must reproduce the reference pass's
   outputs and exact counts. [attempted] and [failed] come from the
   reference pass alone: a repeat makes the same calls on the same inputs
   and, by the digest check, gets the same outputs, so they count each
   distinct operation once and do not grow with the run's length.

   Each pass starts from a full major collection (untimed), so every
   pass starts from the same heap. *)
let passes ?(min = 2) ?(between = ignore) ~seconds ~traced ~first pass r =
  let t0 = Measure.now () in
  let rec go acc timed =
    let start = Measure.now () in
    let times = Measure.Samples.create () and units = Measure.Samples.create () in
    let record ~seconds ~units:u =
      Measure.Samples.push times seconds;
      Measure.Samples.push units u
    in
    Gc.full_major ();
    let p = pass ~traced record r in
    let times = Measure.Samples.to_array times and units = Measure.Samples.to_array units in
    let reference =
      match (first, acc) with
      | Some f, _ -> f
      | None, [] ->
          r.Measure.attempted <- Array.length times;
          r.failed <- p.Pass.failed;
          p
      | None, _ -> List.hd (List.rev acc)
    in
    Measure.check r (p.digest = reference.Pass.digest) "a repeat pass gave different outputs";
    List.iter2
      (fun (name, a) (name', b) ->
        Measure.check r (name = name' && same_bits a b)
          (Printf.sprintf "exact count %s: %g on the first pass, %g on a repeat" name a b))
      reference.exact p.exact;
    let per_unit = Array.map2 ( /. ) times units in
    Array.sort Float.compare per_unit;
    let pass_timing = { rate = sum units /. sum times; per_unit } in
    Printf.printf "  pass %d%s: %d calls, %.6g units/s, per unit p50 %.6g ms, p95 %.6g ms\n"
      (List.length acc + 1)
      (if acc = [] then " (warm-up)" else "")
      (Array.length times) pass_timing.rate
      (1e3 *. Measure.quantile per_unit 0.5)
      (1e3 *. Measure.quantile per_unit 0.95);
    between ();
    let timed = if acc = [] then timed else pass_timing :: timed in
    let acc = p :: acc in
    let now = Measure.now () in
    let elapsed = Measure.seconds_between t0 now in
    if List.length timed >= min && elapsed +. Measure.seconds_between start now > seconds
    then { outputs = List.rev acc; timed = List.rev timed }
    else go acc timed
  in
  go [] []

(* The host's speed follows other tenants' load: it drifts by up to
   about 2.5x, in phases that last from seconds to many minutes, so a
   statistic over the whole run moves with the share of fast phases the
   run happened to meet. The timing metrics come from the slower quarter
   of the timed passes (at least one), whose speed is near the host's
   floor in most runs under a steady load. *)
let slow_quarter t =
  let by_rate = List.sort (fun a b -> Float.compare a.rate b.rate) t.timed in
  let n = List.length by_rate in
  List.filteri (fun i _ -> i < Stdlib.max 1 ((n + 3) / 4)) by_rate

(* Work units per second: the median rate of the slower quarter. *)
let throughput t = Measure.median (List.map (fun p -> p.rate) (slow_quarter t))

(* Time per unit of every call of the slower quarter, sorted. *)
let per_unit t =
  let a = Array.concat (List.map (fun p -> p.per_unit) (slow_quarter t)) in
  Array.sort Float.compare a;
  a

let end_to_end (w : Pass.workload) ~seed ~seconds r pass setup_first =
  let peak_heap = ref None in
  let pass ~traced record r =
    let p = pass ~traced record r in
    (* The peak over one set-up and one pass: later passes only repeat
       it, and the set-up repeats for [setup_s] start after it. *)
    if !peak_heap = None then peak_heap := Some (Measure.peak_heap_mb ());
    p
  in
  (* One set-up repeat after each pass, so that the repeats sample the
     host over the whole run as the passes do. *)
  let setups = ref [ setup_first ] in
  let setup () =
    let (_ : traced:bool -> _), s = Measure.time (fun () -> w.setup seed) in
    setups := s :: !setups
  in
  let t = passes ~between:setup ~seconds ~traced:false ~first:None pass r in
  while List.length !setups < setup_repeats do
    setup ()
  done;
  let first = List.hd t.outputs in
  let sorted = per_unit t in
  let q p = 1e3 *. Measure.quantile sorted p in
  let setup_s = Measure.median !setups in
  let rates = List.map (fun p -> p.rate) t.timed in
  Printf.printf "%s seed %d: %d timed passes, %d in the slower quarter; set-up median of %d: %.6f s\n"
    w.name seed (List.length t.timed) (List.length (slow_quarter t)) (List.length !setups) setup_s;
  Printf.printf "  slower-quarter rate %.6g units/s; all timed passes: median %.6g, range %.6g to %.6g\n"
    (throughput t) (Measure.median rates) (List.fold_left Float.min infinity rates)
    (List.fold_left Float.max 0. rates);
  Printf.printf
    "  per unit over %d calls: p50 %.6f ms, p95 %.6f ms (%d beyond), p99 %.6f ms (%d beyond)\n"
    (Array.length sorted) (q 0.5) (q 0.95) (Measure.beyond sorted 0.95) (q 0.99)
    (Measure.beyond sorted 0.99);
  let m = Measure.metric r in
  m "setup_s" setup_s "s";
  m "throughput_per_s" (throughput t) "1/s";
  m "op_p50_ms" (q 0.5) "ms";
  m "op_p95_ms" (q 0.95) "ms";
  m "mean_power_mw" first.power_mw "mW";
  m "success_ratio" first.success_ratio "ratio";
  m "peak_heap_mb" (Option.get !peak_heap) "MB"

let traced_run (w : Pass.workload) ~seed ~seconds r pass =
  (* The set-up once more, traced, for the traffic layer. *)
  Spans.enable ();
  let (_ : traced:bool -> _) = w.setup seed in
  let generate = Spans.total "traffic.generate" in
  Spans.disable ();
  let half = seconds /. 2. in
  let g0 = Measure.gc_now () in
  let plain = passes ~min:1 ~seconds:half ~traced:false ~first:None pass r in
  let gc = Measure.gc_diff (Measure.gc_now ()) g0 in
  let first = List.hd plain.outputs in
  Spans.enable ();
  let t0 = Measure.now () in
  let traced = passes ~min:1 ~seconds:half ~traced:true ~first:(Some first) pass r in
  let wall = Measure.seconds_between t0 (Measure.now ()) in
  Spans.disable ();
  let n = float_of_int (List.length traced.outputs) and np = float_of_int (List.length plain.outputs) in
  let layer name =
    List.fold_left
      (fun acc (p : Pass.t) ->
        match List.assoc_opt name p.layer with Some v -> acc +. v | None -> acc)
      0. traced.outputs
    /. n
  in
  let selfs, roots = Spans.self_times () in
  (* The runner's evaluation is routing work inside a runner span. *)
  let evaluate_s = layer "routing.evaluate.s" in
  let self l =
    let s = List.assoc l selfs /. n in
    match l with
    | "routing" -> s +. evaluate_s
    | "harness.runner" -> s -. evaluate_s
    | _ -> s
  in
  let untraced_tp = throughput plain and traced_tp = throughput traced in
  let value name =
    match List.assoc_opt name first.exact with
    | Some v -> v
    | None -> (
        let span base = Spans.total base in
        match name with
        | "traffic.generate.calls" -> float_of_int (fst generate)
        | "traffic.generate.s" -> snd generate
        | "harness.runner.self_s" -> self "harness.runner"
        | "gc.minor_words" -> gc.minor_words /. np
        | "gc.promoted_words" -> gc.promoted_words /. np
        | "gc.minor_collections" -> float_of_int gc.minor_collections /. np
        | "gc.major_collections" -> float_of_int gc.major_collections /. np
        | "trace.unaccounted_ratio" -> 1. -. (roots /. wall)
        | "trace.spans" -> float_of_int (List.length (Spans.all ())) /. n
        | "trace.untraced_throughput_per_s" -> untraced_tp
        | "trace.traced_throughput_per_s" -> traced_tp
        | "trace.overhead_ratio" -> (untraced_tp /. traced_tp) -. 1.
        | _ when String.length name > 6 && String.sub name 0 6 = "layer." ->
            self (String.sub name 6 (String.length name - 13))
        | _ when List.mem_assoc name (List.hd traced.outputs).layer -> layer name
        | _ when ends_with name ".calls" ->
            float_of_int (fst (span (String.sub name 0 (String.length name - 6)))) /. n
        | _ when ends_with name ".s" ->
            snd (span (String.sub name 0 (String.length name - 2))) /. n
        | _ -> 0.)
  in
  List.iter (fun name -> Measure.metric r name (value name) (unit_of name)) per_layer;
  let file = Filename.concat Spans.out_dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed) in
  let written = Spans.write file in
  Printf.printf "%s seed %d: %d untraced + %d traced passes, %d spans written to %s\n"
    w.name seed (List.length plain.outputs) (List.length traced.outputs) written file;
  Printf.printf "  throughput untraced %.6g/s, traced %.6g/s\n" untraced_tp traced_tp

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: serve-light serve-congested sim-batch campaign-fig7b";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) || seed < 0 then usage ();
  let w =
    match List.find_opt (fun (w : Pass.workload) -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if trace = 1 && not (Sys.file_exists Spans.out_dir) then Sys.mkdir Spans.out_dir 0o755;
  let r = Measure.report () in
  let pass, setup_first = Measure.time (fun () -> w.setup seed) in
  let seconds = float_of_int seconds in
  if trace = 0 then end_to_end w ~seed ~seconds r pass setup_first
  else traced_run w ~seed ~seconds r pass;
  List.iter
    (fun (name, v, _) ->
      Measure.check r (Float.is_finite v) (Printf.sprintf "metric %s is not finite" name))
    r.metrics;
  r.metrics <- List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) r.metrics;
  print_endline (Measure.to_json r);
  exit (if r.checks_failed = [] then 0 else 1)
