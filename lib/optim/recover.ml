(* Incremental fault-event recovery (see recover.mli). *)

let default_rung3_iterations = 4
let default_rung4_iterations = 16
let default_events = 8

let bump_events () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.recover_events <- m.Routing.Metrics.recover_events + 1

let bump_sheds () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.recover_sheds <- m.Routing.Metrics.recover_sheds + 1

let bump_rung r =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.recover_rung_max <- m.Routing.Metrics.recover_rung_max + r

type shed_reason = Disconnected | Budget_exhausted | Infeasible_overload

let reason_to_string = function
  | Disconnected -> "disconnected"
  | Budget_exhausted -> "budget-exhausted"
  | Infeasible_overload -> "infeasible-overload"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

type shed = { comm : Traffic.Communication.t; reason : shed_reason }

type report = {
  event : Noc.Fault.Schedule.event;
  rung : int;
  live : int;
  shed_now : shed list;
  readmitted : Traffic.Communication.t list;
  survival : float;
  power_before : float;
  power_after : float;
  eval : Routing.Evaluate.report;
  passes : int;
  rips : int;
  reroutes : int;
  work : Routing.Metrics.counters;
}

type t = {
  mesh : Noc.Mesh.t;
  session : Session.t;
      (* keyed by position in the adopted solution: its order is the
         canonical one, and a readmitted communication regains its slot *)
  comms : Traffic.Communication.t array;
  reasons : shed_reason option array;
  rung3_iterations : int;
  rung4_iterations : int;
  budget : int;
  mutable power : float;
}

let fault t = Session.fault t.session
let solution t = Session.solution t.session

let shed t =
  let out = ref [] in
  Array.iteri
    (fun i -> function
      | Some reason -> out := { comm = t.comms.(i); reason } :: !out
      | None -> ())
    t.reasons;
  List.rev !out

let create ?fault ?(rung3_iterations = default_rung3_iterations)
    ?(rung4_iterations = default_rung4_iterations) ?budget model solution =
  if rung3_iterations < 0 then
    invalid_arg "Recover.create: rung3_iterations < 0";
  if rung4_iterations < 0 then
    invalid_arg "Recover.create: rung4_iterations < 0";
  let budget =
    match budget with
    | None -> rung3_iterations + rung4_iterations
    | Some b -> if b < 0 then invalid_arg "Recover.create: budget < 0" else b
  in
  let mesh = Routing.Solution.mesh solution in
  let fault =
    match fault with Some f -> f | None -> Noc.Fault.healthy mesh
  in
  let routes = Routing.Solution.routes solution in
  let power =
    (Routing.Evaluate.solution ~fault model solution)
      .Routing.Evaluate.total_power
  in
  {
    mesh;
    session = Session.create ~fault model mesh routes;
    comms =
      Array.of_list (List.map (fun (r : Routing.Solution.route) -> r.comm) routes);
    reasons = Array.make (List.length routes) None;
    rung3_iterations;
    rung4_iterations;
    budget;
    power;
  }

(* One fault event up the ladder of {!Session} (see recover.mli). The
   engine is fresh at the event's start ([Session.keep]) and rebuilt
   canonically at its end, so [eval] bit-matches [Evaluate.of_loads] on
   {!solution}. *)
let step t event =
  bump_events ();
  Routing.Metrics.with_span "recover" @@ fun () ->
  let before = Routing.Metrics.snapshot () in
  let s = t.session in
  let n = Array.length t.comms in
  let rung = ref 1 in
  let reroutes = ref 0 in
  let passes = ref 0 and rips = ref 0 in
  let shed_now = ref [] in
  let shed_this_event = Array.make n false in
  let shed i reason =
    bump_sheds ();
    t.reasons.(i) <- Some reason;
    shed_this_event.(i) <- true;
    shed_now := { comm = t.comms.(i); reason } :: !shed_now
  in
  let severed =
    Session.keep s (Noc.Fault.Schedule.apply (Session.fault s) event)
  in
  if severed <> [] then rung := 2;
  List.iter
    (fun (i, _) ->
      incr reroutes;
      match Session.repair s t.comms.(i) with
      | Some r -> Session.add s i r
      | None ->
          rung := 5;
          shed i Disconnected)
    severed;
  let budget_left = ref t.budget in
  let truncated = ref false in
  let rep = ref (Session.report s) in
  let negotiate level ~configured pick =
    let iterations = min configured !budget_left in
    if iterations < configured then truncated := true;
    match Session.negotiate s ~iterations pick with
    | None -> ()
    | Some (p, r) ->
        rung := max !rung level;
        budget_left := !budget_left - p;
        passes := !passes + p;
        rips := !rips + r;
        rep := Session.report s
  in
  if not !rep.Routing.Evaluate.feasible then begin
    (* The neighborhood: routes crossing a link the event touched or the
       report convicts. *)
    let over = Session.overload_mask s !rep in
    List.iter
      (fun l -> over.(Noc.Mesh.link_id t.mesh l) <- true)
      (Noc.Fault.Schedule.touched t.mesh event);
    negotiate 3 ~configured:t.rung3_iterations (Session.crosses s over);
    if not !rep.Routing.Evaluate.feasible then
      negotiate 4 ~configured:t.rung4_iterations (fun _ -> true);
    if not !rep.Routing.Evaluate.feasible then begin
      rung := 5;
      let reason =
        if !truncated then Budget_exhausted else Infeasible_overload
      in
      List.iter (fun (i, _) -> shed i reason) (Session.shed s !rep)
    end
  end;
  let readmitted = ref [] in
  for i = 0 to n - 1 do
    if t.reasons.(i) <> None && not shed_this_event.(i) then begin
      incr reroutes;
      if Session.readmit s i t.comms.(i) <> None then begin
        t.reasons.(i) <- None;
        readmitted := t.comms.(i) :: !readmitted
      end
    end
  done;
  bump_rung !rung;
  Session.rebuild s;
  let eval = Session.report s in
  let live = Session.live s in
  let power_before = t.power in
  t.power <- eval.Routing.Evaluate.total_power;
  {
    event;
    rung = !rung;
    live;
    shed_now = List.rev !shed_now;
    readmitted = List.rev !readmitted;
    survival = (if n = 0 then 1. else float_of_int live /. float_of_int n);
    power_before;
    power_after = eval.Routing.Evaluate.total_power;
    eval;
    passes = !passes;
    rips = !rips;
    reroutes = !reroutes;
    work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before;
  }

let run ?fault ?rung3_iterations ?rung4_iterations ?budget model solution
    schedule =
  let mesh = Routing.Solution.mesh solution in
  let smesh = Noc.Fault.Schedule.mesh schedule in
  if Noc.Mesh.rows mesh <> Noc.Mesh.rows smesh
     || Noc.Mesh.cols mesh <> Noc.Mesh.cols smesh
  then invalid_arg "Recover.run: schedule mesh differs from solution mesh";
  let t =
    create ?fault ?rung3_iterations ?rung4_iterations ?budget model solution
  in
  let reports = List.map (step t) (Noc.Fault.Schedule.events schedule) in
  (t, reports)

(* The per-event timeline of the last [engine] run, for [manroute
   inspect] and the campaign audit capture. *)
let reports = Routing.Heuristic.Stash.create ()
let take_reports () = Routing.Heuristic.Stash.take reports

let engine ?(events = default_events) ?fault model mesh comms =
  if events < 0 then invalid_arg "Recover.engine: events < 0";
  Routing.Heuristic.Stash.set reports None;
  if comms = [] then Routing.Solution.make mesh []
  else begin
    let base = Routing.Best.baseline ?fault model mesh comms in
    (* The schedule is keyed on the workload itself: [Heuristic.run]
       hands an engine no rng, and this keeps every trial's schedule
       reproducible, jobs-invariant and nested across paired sweeps
       exactly like the workload. *)
    let rng = Traffic.Workload.keyed_rng "recover-schedule" comms in
    let schedule =
      Noc.Fault.Schedule.random ?init:fault
        ~choose:(fun b -> Traffic.Rng.int rng b)
        ~events mesh
    in
    let t, timeline = run ?fault model base.Routing.Best.solution schedule in
    Routing.Heuristic.Stash.set reports (Some timeline);
    solution t
  end

let heuristic ?name ?events () =
  (match events with
  | Some e when e < 0 -> invalid_arg "Recover.heuristic: events < 0"
  | _ -> ());
  let name = match name with Some n -> n | None -> "REC" in
  Routing.Heuristic.of_fault_aware ~name
    ~description:
      (Printf.sprintf
         "live recovery: %d-event deterministic fault schedule survived by \
          escalating incremental repair with typed shedding"
         (Option.value ~default:default_events events))
    (fun ?fault model mesh comms -> engine ?events ?fault model mesh comms)

let find name =
  Option.map
    (fun events -> heuristic ~name:(Printf.sprintf "REC%d" events) ~events ())
    (Routing.Heuristic.family ~prefix:"rec" ~default:default_events ~min:0 name)
