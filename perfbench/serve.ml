(* serve-light and serve-congested: closed-loop replay of arrival and
   departure traces through [Optim.Online.step].

   A pass serves every session of the instance set on a fresh engine.
   Each session is a resident workload (Poisson arrivals that never
   leave) merged with a Poisson churn stream, as the serve command
   builds it. *)

type shape = {
  side : int;  (** Mesh side. *)
  resident : int;
  resident_weight : Traffic.Workload.weight;
  churn : int;  (** Churn arrivals per session. *)
  churn_weight : Traffic.Workload.weight;
  rate : float;
  sessions : int;
}

let light =
  {
    side = 8;
    resident = 20;
    resident_weight = Traffic.Workload.small;
    churn = 250;
    churn_weight = Traffic.Workload.small;
    rate = 8.;
    sessions = 48;
  }

(* An overloaded 6x6 chip: half the cores carry a resident big-weight
   communication (U[2500, 3500] Mb/s). About three events in ten reach
   global negotiation or shedding, and those rungs take nearly all the
   step time, so the 95th percentile lies inside them. Six sessions
   keep a pass short, so each step gets many repeats in a run. *)
let congested =
  {
    side = 6;
    resident = 18;
    resident_weight = Traffic.Workload.big;
    churn = 50;
    churn_weight = Traffic.Workload.big;
    rate = 8.;
    sessions = 6;
  }

let model = Power.Model.kim_horowitz

(* Drop the arrivals that no routing could carry, with their
   departures: those that would push the live demand leaving their
   source, or entering their sink, past the capacity of that core's
   links. Refusing them says nothing about the router; on serve-light
   about one arrival in 130 000 is such a request. *)
let routable mesh events =
  let core (p : Noc.Coord.t) = ((p.row - 1) * Noc.Mesh.cols mesh) + p.col - 1 in
  let cap =
    Array.map
      (fun p -> float_of_int (List.length (Noc.Mesh.neighbors mesh p)) *. model.capacity)
      (Noc.Mesh.all_cores mesh)
  in
  let out = Array.make (Array.length cap) 0. and into = Array.make (Array.length cap) 0. in
  let live = Hashtbl.create 64 in
  let demand a p = a.(core p) and add a p rate = a.(core p) <- a.(core p) +. rate in
  let cap p = cap.(core p) in
  List.filter
    (fun (ev : Traffic.Trace.event) ->
      match ev.kind with
      | Traffic.Trace.Arrive c ->
          let ok =
            demand out c.src +. c.rate <= cap c.src && demand into c.snk +. c.rate <= cap c.snk
          in
          if ok then begin
            add out c.src c.rate;
            add into c.snk c.rate;
            Hashtbl.replace live c.id c
          end;
          ok
      | Depart id -> (
          match Hashtbl.find_opt live id with
          | Some (c : Traffic.Communication.t) ->
              Hashtbl.remove live id;
              add out c.src (-.c.rate);
              add into c.snk (-.c.rate);
              true
          | None -> false))
    events

let traces shape mesh seed =
  Array.init shape.sessions (fun k ->
      Spans.with_ "traffic.generate" @@ fun () ->
      let rng =
        Traffic.Rng.of_key "perfbench-serve" [ Int64.of_int seed; Int64.of_int k ]
      in
      let comms =
        Traffic.Workload.uniform rng mesh ~n:shape.resident
          ~weight:shape.resident_weight
      in
      let resident = Traffic.Trace.persistent rng ~rate:shape.rate comms in
      let churn =
        Traffic.Trace.generate ~id_base:shape.resident rng mesh
          ~profile:Traffic.Trace.Poisson ~arrivals:shape.churn ~rate:shape.rate
          ~weight:shape.churn_weight
      in
      Array.of_list (routable mesh (Traffic.Trace.merge resident churn)))

let bits (r : Routing.Evaluate.report) = Marshal.to_string r [ Marshal.No_sharing ]

let setup shape seed =
  let mesh = Noc.Mesh.square shape.side in
  let traces = traces shape mesh seed in
  let create () =
    Array.map
      (fun _ -> Spans.with_ "optim.online.create" (fun () -> Optim.Online.create model mesh))
      traces
  in
  (* Engine creation is set-up a user pays per session: the first pass
     serves on the engines set-up created, every later pass on fresh
     ones it creates untimed. *)
  let fresh = ref (Some (create ())) in
  fun ~traced record (r : Measure.report) ->
    let engines =
      match !fresh with
      | Some e ->
          fresh := None;
          e
      | None -> create ()
    in
    let rungs = Array.make 6 0 and rung_s = Array.make 6 0. in
    let arrive_s = ref 0. and depart_s = ref 0. in
    let arrivals = ref 0 and first_try = ref 0 and admitted = ref 0 in
    let reached3 = ref 0 and rescued = ref 0 in
    let passes = ref 0 and rips = ref 0 and reroutes = ref 0 in
    let wakes = ref 0 and sleeps = ref 0 and readmitted = ref 0 in
    let minor = ref 0. and major = ref 0. in
    let ops = ref 0 and failed = ref 0 and power = ref 0. in
    let outputs = Buffer.create 4096 in
    let before = Routing.Metrics.snapshot () in
    Array.iteri
      (fun k trace ->
        let t = engines.(k) in
        Array.iteri
          (fun i (ev : Traffic.Trace.event) ->
            Spans.set_event ((k * 1_000_000) + i);
            let is_arrival =
              match ev.kind with Traffic.Trace.Arrive _ -> true | _ -> false
            in
            if is_arrival then incr arrivals;
            let g0 = if traced then Gc.counters () else (0., 0., 0.) in
            let t0 = Measure.now () in
            let op =
              match Spans.with_ "optim.online.step" (fun () -> Optim.Online.step t ev) with
              | op -> Some op
              | exception e ->
                  Printf.printf "step raised: %s\n" (Printexc.to_string e);
                  None
            in
            let dt = Measure.seconds_between t0 (Measure.now ()) in
            record ~seconds:dt ~units:1.;
            incr ops;
            if traced then begin
              let m1, _, j1 = Gc.counters () and m0, _, j0 = g0 in
              minor := !minor +. (m1 -. m0);
              major := !major +. (j1 -. j0)
            end;
            match op with
            | None -> incr failed
            | Some op ->
                rungs.(op.rung) <- rungs.(op.rung) + 1;
                rung_s.(op.rung) <- rung_s.(op.rung) +. dt;
                if is_arrival then arrive_s := !arrive_s +. dt
                else depart_s := !depart_s +. dt;
                passes := !passes + op.passes;
                rips := !rips + op.rips;
                reroutes := !reroutes + op.reroutes;
                wakes := !wakes + op.wakes;
                sleeps := !sleeps + op.sleeps;
                readmitted := !readmitted + List.length op.readmitted;
                if is_arrival then begin
                  if op.admitted then incr admitted else incr failed;
                  if op.rung = 1 then incr first_try;
                  if op.rung >= 3 then begin
                    incr reached3;
                    if op.rung <= 4 && op.admitted then incr rescued
                  end
                end)
          trace;
        let s = Optim.Online.session t in
        power := !power +. s.mean_power;
        Buffer.add_string outputs
          (Marshal.to_string (s, Optim.Online.solution t) [ Marshal.No_sharing ]);
        let rescore =
          Routing.Evaluate.of_loads model
            (Routing.Solution.loads (Optim.Online.solution t))
        in
        Measure.check r
          (bits s.final = bits rescore)
          (Printf.sprintf "session %d: final report differs from of_loads" k))
      traces;
    let work = Routing.Metrics.diff (Routing.Metrics.snapshot ()) before in
    let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
    let f = float_of_int in
    let per_event x = if !ops = 0 then 0. else x /. f !ops in
    {
      Pass.failed = !failed;
      power_mw = !power /. f (Array.length traces);
      success_ratio = ratio !admitted !arrivals;
      exact =
        List.init 5 (fun i ->
            (Printf.sprintf "optim.online.rung%d.calls" (i + 1), f rungs.(i + 1)))
        @ [
            ("optim.online.passes", f !passes);
            ("optim.online.rips", f !rips);
            ("optim.online.reroutes", f !reroutes);
            ("optim.online.wakes", f !wakes);
            ("optim.online.sleeps", f !sleeps);
            ("optim.online.readmitted", f !readmitted);
            ("optim.online.first_try_admit_ratio", ratio !first_try !arrivals);
            ("optim.online.ladder_rescue_ratio", ratio !rescued !reached3);
          ]
        @ Counters.exact work;
      layer =
        List.init 5 (fun i ->
            (Printf.sprintf "optim.online.rung%d.s" (i + 1), rung_s.(i + 1)))
        @ [
            ("optim.online.arrive.s", !arrive_s);
            ("optim.online.depart.s", !depart_s);
            ("optim.online.minor_words_per_event", per_event !minor);
            ("optim.online.major_words_per_event", per_event !major);
          ];
      digest = Digest.string (Buffer.contents outputs);
    }

let light_workload = { Pass.name = "serve-light"; setup = setup light }
let congested_workload = { Pass.name = "serve-congested"; setup = setup congested }
