(* The incremental routing session (Optim.Session) that Recover and
   Online share: a differential oracle driving add, remove, every ladder
   rung and readmission over random workloads and fault events.

   After every operation the tracked report bit-matches a from-scratch
   [Evaluate.of_loads] of the engine's own loads, the engine carries
   exactly the live routes, and no live route crosses a dead link; at
   every canonical point (creation, [keep], [rebuild], and appends made
   from one) the report bit-matches [Evaluate.of_loads] on the session's
   solution. The whole trajectory is bit-identical on both delta
   backends, with identical work counters. *)

let km = Power.Model.kim_horowitz
let bits = Int64.bits_of_float

let same_report (a : Routing.Evaluate.report) (b : Routing.Evaluate.report) =
  a.feasible = b.feasible
  && bits a.total_power = bits b.total_power
  && bits a.static_power = bits b.static_power
  && bits a.dynamic_power = bits b.dynamic_power
  && a.active_links = b.active_links
  && bits a.max_load = bits b.max_load
  && a.overloaded = b.overloaded

let respects fault (r : Routing.Solution.route) =
  List.for_all (fun (p, _) -> Noc.Fault.path_usable fault p) r.paths
  && List.for_all (fun (w, _) -> Noc.Fault.walk_usable fault w) r.detours

(* The engine's loads carry exactly the live routes (up to the float
   cancellations of incremental removal). *)
let carries_live s =
  let fault = Optim.Session.fault s in
  let want = Routing.Solution.loads ~fault (Optim.Session.solution s) in
  let have = Optim.Session.loads s in
  let ok = ref true in
  Noc.Load.iter
    (fun id x ->
      let y = Noc.Load.get have id in
      if Float.abs (x -. y) > 1e-6 *. (1. +. Float.abs x) then ok := false)
    want;
  Noc.Load.iter
    (fun id y -> if y > 1e-6 && Noc.Load.get want id = 0. then ok := false)
    have;
  !ok

(* One random walk over the session API. Returns the per-operation
   reports (the trajectory both backends must agree on) and whether
   every invariant held. *)
let drive seed nops =
  let mesh = Noc.Mesh.square 5 in
  let rng = Traffic.Rng.create seed in
  let comms =
    Array.of_list
      (Traffic.Workload.uniform rng mesh ~n:14 ~weight:Traffic.Workload.mixed)
  in
  let events =
    ref
      (Noc.Fault.Schedule.events
         (Noc.Fault.Schedule.random ~choose:(Traffic.Rng.int rng) ~events:nops
            mesh))
  in
  let s = Optim.Session.create ~fault:(Noc.Fault.healthy mesh) km mesh [] in
  let next_comm = ref 0 in
  let canonical = ref true in
  (* Communications out of the session, with the key they last held
     (none when never admitted: readmission then appends). *)
  let out = ref [] in
  let live_keys () =
    List.filter
      (fun k -> Optim.Session.find s k <> None)
      (List.init (Optim.Session.next_key s) Fun.id)
  in
  let pick l = List.nth l (Traffic.Rng.int rng (List.length l)) in
  let evict removed =
    out :=
      !out
      @ List.map
          (fun (k, (r : Routing.Solution.route)) -> (Some k, r.comm))
          removed
  in
  let ok = ref true in
  let trajectory = ref [] in
  for _ = 1 to nops do
    (match Traffic.Rng.int rng 9 with
    | 0 | 1 ->
        if !next_comm < Array.length comms then begin
          let c = comms.(!next_comm) in
          incr next_comm;
          match Optim.Session.repair s c with
          | Some r -> ignore (Optim.Session.append s r)
          | None -> out := !out @ [ (None, c) ]
        end
    | 2 -> (
        match live_keys () with
        | [] -> ()
        | keys ->
            let k = pick keys in
            Option.iter
              (fun r -> evict [ (k, r) ])
              (Optim.Session.remove s k);
            canonical := false)
    | 3 ->
        let rep = Optim.Session.report s in
        let over = Optim.Session.overload_mask s rep in
        let iterations = Traffic.Rng.int rng 4 in
        let select =
          if Traffic.Rng.bool rng then Optim.Session.crosses s over
          else fun _ -> true
        in
        (match Optim.Session.negotiate s ~iterations select with
        | Some (passes, _) -> if passes > iterations then ok := false
        | None -> ());
        canonical := false
    | 4 ->
        (* The first victim: the lightest route crossing a convicted
           link, the earliest key on ties. *)
        let rep = Optim.Session.report s in
        let over = Optim.Session.overload_mask s rep in
        let lightest =
          List.fold_left
            (fun best k ->
              let r = Option.get (Optim.Session.find s k) in
              let rate = r.Routing.Solution.comm.Traffic.Communication.rate in
              match best with
              | Some (_, b) when b <= rate -> best
              | _ when Optim.Session.crosses s over r -> Some (k, rate)
              | _ -> best)
            None (live_keys ())
        in
        let removed = Optim.Session.shed s rep in
        (match (removed, lightest) with
        | [], None -> ()
        | (k, _) :: _, Some (k', _) when k = k' -> ()
        | _ -> ok := false);
        if not (Optim.Session.report s).Routing.Evaluate.feasible then
          ok := false;
        evict removed;
        canonical := false
    | 5 -> (
        match !out with
        | [] -> ()
        | (k, c) :: rest -> (
            let key =
              match k with Some k -> k | None -> Optim.Session.next_key s
            in
            match Optim.Session.readmit s key c with
            | Some _ ->
                out := rest;
                if not (Optim.Session.report s).Routing.Evaluate.feasible then
                  ok := false;
                canonical := false
            | None -> out := rest @ [ (k, c) ]))
    | 6 ->
        let mask =
          Array.init (Noc.Mesh.num_links mesh) (fun _ -> Traffic.Rng.bool rng)
        in
        let before = Optim.Session.report s in
        let tries, improved = Optim.Session.reoptimize s mask in
        let after = Optim.Session.report s in
        if tries < 0 || (improved && not after.Routing.Evaluate.feasible) then
          ok := false;
        if (not improved) && bits after.total_power <> bits before.total_power
        then ok := false;
        canonical := false
    | 7 ->
        Optim.Session.rebuild s;
        canonical := true
    | _ -> (
        match !events with
        | [] -> ()
        | e :: rest ->
            events := rest;
            let fault =
              Noc.Fault.Schedule.apply (Optim.Session.fault s) e
            in
            evict (Optim.Session.keep s fault);
            canonical := true));
    let fault = Optim.Session.fault s in
    let rep = Optim.Session.report s in
    let routes = Optim.Session.routes s in
    if
      not
        (same_report rep (Routing.Evaluate.of_loads km (Optim.Session.loads s))
        && Optim.Session.live s = List.length routes
        && List.for_all (respects fault) routes
        && carries_live s
        && ((not !canonical)
           || same_report rep
                (Routing.Evaluate.of_loads km
                   (Routing.Solution.loads ~fault (Optim.Session.solution s)))))
    then ok := false;
    trajectory := rep :: !trajectory
  done;
  (List.rev !trajectory, !ok)

let with_backend b f =
  Routing.Delta.set_table_backend (Some b);
  Fun.protect ~finally:(fun () -> Routing.Delta.set_table_backend None) f

let metered f =
  let before = Routing.Metrics.snapshot () in
  let v = f () in
  (v, Routing.Metrics.diff (Routing.Metrics.snapshot ()) before)

let prop_session_oracle =
  QCheck.Test.make
    ~name:"every session operation bit-matches a full rescore, both backends"
    ~count:100
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 60))
    (fun (seed, nops) ->
      let (ta, oka), wa = with_backend true (fun () -> metered (fun () -> drive seed nops)) in
      let (tl, okl), wl = with_backend false (fun () -> metered (fun () -> drive seed nops)) in
      oka && okl
      && List.length ta = List.length tl
      && List.for_all2 same_report ta tl
      && wa.Routing.Metrics.delta_evals = wl.Routing.Metrics.delta_evals
      && Routing.Metrics.equal wa wl)

let test_keys_order () =
  (* Ascending keys are the canonical order: a route added under an old
     key sits before one appended later. *)
  let mesh = Noc.Mesh.square 4 in
  let c id r c' rate =
    Traffic.Communication.make ~id ~src:(Noc.Coord.make ~row:r ~col:1)
      ~snk:(Noc.Coord.make ~row:r ~col:c') ~rate
  in
  let s = Optim.Session.create ~fault:(Noc.Fault.healthy mesh) km mesh [] in
  let route comm = Option.get (Optim.Session.repair s comm) in
  let k0 = Optim.Session.append s (route (c 0 1 4 100.)) in
  let k1 = Optim.Session.append s (route (c 1 2 4 100.)) in
  Alcotest.(check (list int)) "append keys" [ 0; 1 ] [ k0; k1 ];
  ignore (Optim.Session.remove s k0);
  ignore (Optim.Session.append s (route (c 2 3 4 100.)));
  Optim.Session.add s k0 (route (c 0 1 4 100.));
  Alcotest.(check (list int)) "canonical order" [ 0; 1; 2 ]
    (List.map
       (fun (r : Routing.Solution.route) -> r.comm.Traffic.Communication.id)
       (Optim.Session.routes s));
  Alcotest.check_raises "live key refused"
    (Invalid_argument "Session.add: key is live") (fun () ->
      Optim.Session.add s k1 (route (c 1 2 4 100.)))

let () =
  Alcotest.run "session"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_session_oracle;
          Alcotest.test_case "keys give the canonical order" `Quick
            test_keys_order;
        ] );
    ]
