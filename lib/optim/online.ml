(* Long-lived incremental routing service (see online.mli). *)

let default_idle_epochs = 2
let default_refine_iterations = 4
let default_global_iterations = 16
let default_rate = 8.
let default_churn = 40

type shed = { comm : Traffic.Communication.t; reason : Recover.shed_reason }

type power_split = {
  dynamic : float;
  active_leak : float;
  idle_leak : float;
  saved_leak : float;
  wake_cost : float;
}

let split_total s = s.dynamic +. s.active_leak +. s.idle_leak +. s.wake_cost

let split_nosleep s =
  s.dynamic +. s.active_leak +. s.idle_leak +. s.saved_leak

type op = {
  seq : int;
  time : float;
  kind : Traffic.Trace.kind;
  rung : int;
  admitted : bool;
  live : int;
  shed_now : shed list;
  readmitted : Traffic.Communication.t list;
  passes : int;
  rips : int;
  reroutes : int;
  wakes : int;
  sleeps : int;
  power : power_split;
  eval : Routing.Evaluate.report;
  work : Routing.Metrics.counters;
}

type t = {
  model : Power.Model.t;
  mesh : Noc.Mesh.t;
  idle_epochs : int;
  wake_penalty : float;
  sleep : bool;
  refine_iterations : int;
  global_iterations : int;
  session : Session.t;
      (* keyed by admission: a clean admit appends in canonical order *)
  keys : (int, int) Hashtbl.t;  (* communication id -> session key *)
  mutable pending_shed : shed list;  (* oldest first *)
  awake : bool array;
  idle_for : int array;
  mutable seq : int;
  mutable sum_total : float;
  mutable sum_nosleep : float;
  mutable works : float list;  (* per-op delta_evals, reversed *)
  mutable s_arrivals : int;
  mutable s_departures : int;
  mutable s_admitted : int;
  mutable s_shed : int;
  mutable s_readmitted : int;
  mutable s_wakes : int;
  mutable s_sleeps : int;
  mutable peak_live : int;
  mutable rung_max : int;
}

let create ?fault ?(idle_epochs = default_idle_epochs) ?wake_penalty
    ?(sleep = true) ?(refine_iterations = default_refine_iterations)
    ?(global_iterations = default_global_iterations) model mesh =
  if idle_epochs < 1 then invalid_arg "Online.create: idle_epochs < 1";
  (match wake_penalty with
  | Some w when w < 0. -> invalid_arg "Online.create: wake_penalty < 0"
  | _ -> ());
  if refine_iterations < 0 then
    invalid_arg "Online.create: refine_iterations < 0";
  if global_iterations < 0 then
    invalid_arg "Online.create: global_iterations < 0";
  let fault =
    match fault with Some f -> f | None -> Noc.Fault.healthy mesh
  in
  let wake_penalty =
    match wake_penalty with
    | Some w -> w
    | None -> model.Power.Model.p_leak
  in
  let nl = Noc.Mesh.num_links mesh in
  {
    model;
    mesh;
    idle_epochs;
    wake_penalty;
    sleep;
    refine_iterations;
    global_iterations;
    session = Session.create ~fault model mesh [];
    keys = Hashtbl.create 64;
    pending_shed = [];
    awake = Array.make nl true;
    idle_for = Array.make nl 0;
    seq = 0;
    sum_total = 0.;
    sum_nosleep = 0.;
    works = [];
    s_arrivals = 0;
    s_departures = 0;
    s_admitted = 0;
    s_shed = 0;
    s_readmitted = 0;
    s_wakes = 0;
    s_sleeps = 0;
    peak_live = 0;
    rung_max = 0;
  }

let live t = Session.live t.session
let solution t = Session.solution t.session
let pending t = t.pending_shed

let park t s =
  t.pending_shed <- t.pending_shed @ [ s ];
  t.s_shed <- t.s_shed + 1

(* Speculative readmission of the shed queue, oldest first; a readmitted
   communication is appended. *)
let readmit t reroutes readmitted =
  let still = ref [] in
  List.iter
    (fun s ->
      incr reroutes;
      let key = Session.next_key t.session in
      match Session.readmit t.session key s.comm with
      | None -> still := s :: !still
      | Some _ ->
          Hashtbl.replace t.keys s.comm.Traffic.Communication.id key;
          t.s_readmitted <- t.s_readmitted + 1;
          readmitted := s.comm :: !readmitted)
    t.pending_shed;
  t.pending_shed <- List.rev !still

(* Per-epoch sleep bookkeeping over the final loads: traffic wakes a
   sleeping link (one penalty), sustained zero occupancy past the
   hysteresis switches it off. Dead links are outside the leakage pool
   (the fault already powered them down). *)
let sleep_scan t =
  let loads = Session.loads t.session in
  let wakes = ref 0
  and sleeps = ref 0
  and idle_awake = ref 0
  and asleep = ref 0 in
  for id = 0 to Noc.Mesh.num_links t.mesh - 1 do
    if Noc.Load.usable loads id then
      if Noc.Load.get loads id > 0. then begin
        if not t.awake.(id) then begin
          t.awake.(id) <- true;
          incr wakes
        end;
        t.idle_for.(id) <- 0
      end
      else if t.awake.(id) then begin
        t.idle_for.(id) <- t.idle_for.(id) + 1;
        if t.sleep && t.idle_for.(id) >= t.idle_epochs then begin
          t.awake.(id) <- false;
          incr sleeps;
          incr asleep
        end
        else incr idle_awake
      end
      else incr asleep
  done;
  (!wakes, !sleeps, !idle_awake, !asleep)

let step t (event : Traffic.Trace.event) =
  Routing.Metrics.with_span "serve" @@ fun () ->
  let before = Routing.Metrics.snapshot () in
  let seq = t.seq in
  t.seq <- seq + 1;
  let rung = ref 1 in
  let admitted = ref false in
  let shed_now = ref [] in
  let readmitted = ref [] in
  let passes = ref 0
  and rips = ref 0
  and reroutes = ref 0 in
  let sess = t.session in
  (match event.Traffic.Trace.kind with
  | Traffic.Trace.Arrive comm -> (
      t.s_arrivals <- t.s_arrivals + 1;
      incr reroutes;
      match Session.repair sess comm with
      | None ->
          (* The fault disconnects the endpoints: park the request for
             readmission once capacity returns. *)
          rung := 5;
          let s = { comm; reason = Recover.Disconnected } in
          park t s;
          shed_now := [ s ]
      | Some r ->
          let key = Session.append sess r in
          Hashtbl.replace t.keys comm.Traffic.Communication.id key;
          let rep = Session.report sess in
          if rep.Routing.Evaluate.feasible then
            (* Clean admit: an append in admission order is already
               canonical — the O(path-length) fast path, no rebuild. *)
            admitted := true
          else begin
            (* Up the ladder of {!Session} from rung 3. *)
            rung := 3;
            let tally = function
              | Some (p, r) ->
                  passes := !passes + p;
                  rips := !rips + r
              | None -> ()
            in
            let over = Session.overload_mask sess rep in
            tally
              (Session.negotiate sess ~iterations:t.refine_iterations
                 (Session.crosses sess over));
            if not (Session.report sess).Routing.Evaluate.feasible then begin
              rung := 4;
              tally
                (Session.negotiate sess ~iterations:t.global_iterations
                   (fun _ -> true))
            end;
            if not (Session.report sess).Routing.Evaluate.feasible then begin
              rung := 5;
              (* Negotiation quits only at its sweep caps, so an
                 infeasible outcome with no caps configured means the
                 ladder was never allowed to run. *)
              let reason =
                if t.refine_iterations + t.global_iterations = 0 then
                  Recover.Budget_exhausted
                else Recover.Infeasible_overload
              in
              List.iter
                (fun (_, (r : Routing.Solution.route)) ->
                  let s = { comm = r.comm; reason } in
                  park t s;
                  shed_now := s :: !shed_now)
                (Session.shed sess (Session.report sess))
            end;
            admitted := Session.find sess key <> None;
            Session.rebuild sess
          end;
          if !admitted then t.s_admitted <- t.s_admitted + 1)
  | Traffic.Trace.Depart id -> (
      t.s_departures <- t.s_departures + 1;
      let key = Hashtbl.find_opt t.keys id in
      Hashtbl.remove t.keys id;
      match Option.bind key (Session.remove sess) with
      | None ->
          (* Shed at admission (or unknown): the request gives up and
             leaves the retry queue. *)
          t.pending_shed <-
            List.filter
              (fun s -> s.comm.Traffic.Communication.id <> id)
              t.pending_shed
      | Some r ->
          (* Local re-optimization of the freed neighborhood. *)
          let touched = Array.make (Noc.Mesh.num_links t.mesh) false in
          Routing.Solution.iter_route_links r (fun l ->
              touched.(Noc.Mesh.link_id t.mesh l) <- true);
          let tries, improved = Session.reoptimize sess touched in
          reroutes := !reroutes + tries;
          if improved then rung := max !rung 2;
          if t.pending_shed <> [] then readmit t reroutes readmitted;
          Session.rebuild sess));
  let eval = Session.report sess in
  let wakes, sleeps, idle_awake, asleep = sleep_scan t in
  let p_leak = t.model.Power.Model.p_leak in
  let power =
    {
      dynamic = eval.Routing.Evaluate.dynamic_power;
      active_leak = eval.Routing.Evaluate.static_power;
      idle_leak = p_leak *. float_of_int idle_awake;
      saved_leak = p_leak *. float_of_int asleep;
      wake_cost = t.wake_penalty *. float_of_int wakes;
    }
  in
  t.sum_total <- t.sum_total +. split_total power;
  (* Accumulate the always-awake column through the exact expression a
     switch-off-disabled run evaluates — one multiply over the combined
     idle count, zero wake term — so [mean_power_nosleep] is
     bit-identical to that run's [mean_power] (summing the already
     rounded [idle_leak] and [saved_leak] parts is not: float addition
     does not distribute over the split). *)
  t.sum_nosleep <-
    t.sum_nosleep
    +. split_total
         {
           power with
           idle_leak = p_leak *. float_of_int (idle_awake + asleep);
           saved_leak = 0.;
           wake_cost = 0.;
         };
  let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
  t.works <- float_of_int work.Routing.Metrics.delta_evals :: t.works;
  t.s_wakes <- t.s_wakes + wakes;
  t.s_sleeps <- t.s_sleeps + sleeps;
  t.peak_live <- max t.peak_live (live t);
  t.rung_max <- max t.rung_max !rung;
  {
    seq;
    time = event.Traffic.Trace.time;
    kind = event.Traffic.Trace.kind;
    rung = !rung;
    admitted = !admitted;
    live = live t;
    shed_now = List.rev !shed_now;
    readmitted = List.rev !readmitted;
    passes = !passes;
    rips = !rips;
    reroutes = !reroutes;
    wakes;
    sleeps;
    power;
    eval;
    work;
  }

let serve t events = List.map (step t) events

type session = {
  ops : int;
  s_arrivals : int;
  s_departures : int;
  s_admitted : int;
  s_shed : int;
  s_readmitted : int;
  s_wakes : int;
  s_sleeps : int;
  peak_live : int;
  final_live : int;
  rung_max : int;
  mean_power : float;
  mean_power_nosleep : float;
  saved_ratio : float;
  p50_work : float;
  p95_work : float;
  final : Routing.Evaluate.report;
}

(* Nearest-rank quantile over a sorted array — the same rule as the
   harness Summary machinery, restated here because [optim] sits below
   [harness] in the library stack. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0
              (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let session t =
  let ops = t.seq in
  let works = Array.of_list (List.rev t.works) in
  Array.sort Float.compare works;
  let mean_power =
    if ops = 0 then 0. else t.sum_total /. float_of_int ops
  in
  let mean_power_nosleep =
    if ops = 0 then 0. else t.sum_nosleep /. float_of_int ops
  in
  {
    ops;
    s_arrivals = t.s_arrivals;
    s_departures = t.s_departures;
    s_admitted = t.s_admitted;
    s_shed = t.s_shed;
    s_readmitted = t.s_readmitted;
    s_wakes = t.s_wakes;
    s_sleeps = t.s_sleeps;
    peak_live = t.peak_live;
    final_live = live t;
    rung_max = t.rung_max;
    mean_power;
    mean_power_nosleep;
    saved_ratio =
      (if mean_power_nosleep <= 0. then 0.
       else 1. -. (mean_power /. mean_power_nosleep));
    p50_work = quantile works 0.50;
    p95_work = quantile works 0.95;
    final = Session.report t.session;
  }

(* Churn weights spanning the workload's own rate band, so the passing
   traffic stresses the same capacity regime. *)
let band comms =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (c : Traffic.Communication.t) ->
        (Float.min lo c.rate, Float.max hi c.rate))
      (infinity, 0.) comms
  in
  Traffic.Workload.weight ~lo ~hi

(* The session summary of the last [engine] run, for the campaign
   runner and the audit capture. *)
let summary = Routing.Heuristic.Stash.create ()
let take_session () = Routing.Heuristic.Stash.take summary

let engine ?(rate = default_rate) ?(churn = default_churn) ?idle_epochs
    ?wake_penalty ?sleep ?fault model mesh comms =
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Online.engine: rate must be finite and > 0";
  if churn < 0 then invalid_arg "Online.engine: churn < 0";
  Routing.Heuristic.Stash.set summary None;
  if comms = [] then Routing.Solution.make mesh []
  else begin
    (* The trace is keyed on the workload itself, like the fault
       schedule of {!Recover.engine}. *)
    let rng = Traffic.Workload.keyed_rng "serve-trace" comms in
    let max_id =
      List.fold_left
        (fun m (c : Traffic.Communication.t) -> max m c.id)
        0 comms
    in
    let churn_events =
      Traffic.Trace.generate ~id_base:(max_id + 1) rng mesh
        ~profile:Traffic.Trace.Poisson ~arrivals:churn ~rate
        ~weight:(band comms)
    in
    let resident = Traffic.Trace.persistent rng ~rate comms in
    let events = Traffic.Trace.merge churn_events resident in
    let t = create ?fault ?idle_epochs ?wake_penalty ?sleep model mesh in
    ignore (serve t events);
    Routing.Heuristic.Stash.set summary (Some (session t));
    solution t
  end

let heuristic ?name ?rate ?sleep () =
  (match rate with
  | Some r when not (Float.is_finite r && r > 0.) ->
      invalid_arg "Online.heuristic: rate must be finite and > 0"
  | _ -> ());
  let name = match name with Some n -> n | None -> "SRV" in
  Routing.Heuristic.of_fault_aware ~name
    ~description:
      (Printf.sprintf
         "online service: workload served as a streaming trace (%g \
          arrivals/unit-time + %d churn) with delta-scored admission, \
          departure re-optimization and idle-link switch-off%s"
         (Option.value ~default:default_rate rate)
         default_churn
         (match sleep with Some false -> " disabled" | _ -> ""))
    (fun ?fault model mesh comms -> engine ?rate ?sleep ?fault model mesh comms)

let find name =
  Option.map
    (fun rate ->
      heuristic ~name:(Printf.sprintf "SRV%d" rate) ~rate:(float_of_int rate) ())
    (Routing.Heuristic.family ~prefix:"srv"
       ~default:(int_of_float default_rate) ~min:1 name)
