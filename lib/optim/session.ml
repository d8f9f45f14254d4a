(* One incremental routing session and its escalation ladder (see
   session.mli). *)

module Keys = Map.Make (Int)

type t = {
  model : Power.Model.t;
  mesh : Noc.Mesh.t;
  mutable fault : Noc.Fault.t;
  history : float array;
  mutable eng : Routing.Delta.t;
  mutable live : Routing.Solution.route Keys.t;
  mutable count : int;
  mutable next : int;
}

let fault t = t.fault
let loads t = Routing.Delta.loads t.eng
let report t = Routing.Delta.report t.eng
let live t = t.count
let find t k = Keys.find_opt k t.live
let routes t = List.map snd (Keys.bindings t.live)
let solution t = Routing.Solution.make t.mesh (routes t)
let next_key t = t.next

(* Record a route the engine already carries. *)
let insert t k r =
  if Keys.mem k t.live then invalid_arg "Session.add: key is live";
  t.live <- Keys.add k r t.live;
  t.count <- t.count + 1;
  if k >= t.next then t.next <- k + 1

let add t k r =
  insert t k r;
  Routing.Delta.add_route t.eng r

let append t r =
  let k = t.next in
  add t k r;
  k

let remove t k =
  match Keys.find_opt k t.live with
  | None -> None
  | Some r ->
      Routing.Delta.remove_route t.eng r;
      t.live <- Keys.remove k t.live;
      t.count <- t.count - 1;
      Some r

let rebuild t =
  let eng = Routing.Delta.create ~fault:t.fault t.model t.mesh in
  Keys.iter (fun _ r -> Routing.Delta.add_route eng r) t.live;
  t.eng <- eng

let create ~fault model mesh routes =
  let t =
    {
      model;
      mesh;
      fault;
      history = Array.make (Noc.Mesh.num_links mesh) 0.;
      eng = Routing.Delta.create ~fault model mesh;
      live = Keys.empty;
      count = 0;
      next = 0;
    }
  in
  List.iteri (add t) routes;
  t

let overload_mask t (rep : Routing.Evaluate.report) =
  let over = Array.make (Noc.Mesh.num_links t.mesh) false in
  List.iter
    (fun ((l : Noc.Mesh.link), _) -> over.(Noc.Mesh.link_id t.mesh l) <- true)
    rep.overloaded;
  over

let crosses t mask r = Routing.Solution.route_crosses t.mesh mask r

let keep t fault =
  t.fault <- fault;
  let kept, dropped =
    Keys.partition (fun _ r -> Routing.Repair.route_usable fault r) t.live
  in
  t.live <- kept;
  t.count <- Keys.cardinal kept;
  rebuild t;
  Keys.bindings dropped

let repair t (comm : Traffic.Communication.t) =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.detour_searches <- m.Routing.Metrics.detour_searches + 1;
  match
    Routing.Repair.manhattan_usable_sc t.fault
      (Routing.Delta.scorer_of t.eng)
      (loads t) comm
  with
  | Some p -> Some (Routing.Solution.route_single comm p)
  | None ->
      Option.map
        (Routing.Solution.route_detour comm)
        (Routing.Repair.detour t.fault t.mesh ~src:comm.src ~snk:comm.snk)

let negotiate t ~iterations pick =
  let picked = Keys.filter (fun _ r -> pick r) t.live in
  if iterations = 0 || Keys.is_empty picked then None
  else begin
    let keys = Array.of_list (Keys.bindings picked) in
    let r =
      Pathfinder.refine ~iterations ~history:t.history t.eng
        (Array.map snd keys)
    in
    Array.iteri
      (fun j (k, _) -> t.live <- Keys.add k r.Pathfinder.routes.(j) t.live)
      keys;
    Some (r.Pathfinder.passes, r.Pathfinder.rips)
  end

let shed t rep =
  let lighter (r : Routing.Solution.route) = function
    | Some (_, (p : Routing.Solution.route)) ->
        r.comm.Traffic.Communication.rate < p.comm.Traffic.Communication.rate
    | None -> true
  in
  let rec loop (rep : Routing.Evaluate.report) acc =
    if rep.feasible then List.rev acc
    else
      let over = overload_mask t rep in
      let pick =
        Keys.fold
          (fun k r pick ->
            if crosses t over r && lighter r pick then Some (k, r) else pick)
          t.live None
      in
      match pick with
      | None ->
          (* Unreachable: an overloaded link carries some live route's
             rate. Guarded anyway — shedding must never spin. *)
          List.rev acc
      | Some (k, r) ->
          ignore (remove t k);
          loop (report t) ((k, r) :: acc)
  in
  loop rep []

let readmit t k comm =
  match repair t comm with
  | None -> None
  | Some r ->
      let m = Routing.Delta.mark t.eng in
      Routing.Delta.add_route t.eng r;
      if (report t).Routing.Evaluate.feasible then begin
        Routing.Delta.commit t.eng m;
        insert t k r;
        Some r
      end
      else begin
        Routing.Delta.rollback t.eng m;
        None
      end

let reoptimize t mask =
  Keys.fold
    (fun k (r0 : Routing.Solution.route) (tries, improved) ->
      if not (crosses t mask r0) then (tries, improved)
      else begin
        let rep0 = report t in
        let m = Routing.Delta.mark t.eng in
        Routing.Delta.remove_route t.eng r0;
        let better =
          match repair t r0.comm with
          | None -> None
          | Some r1 ->
              Routing.Delta.add_route t.eng r1;
              let rep1 = report t in
              if
                rep1.Routing.Evaluate.feasible
                && rep1.Routing.Evaluate.total_power
                   < rep0.Routing.Evaluate.total_power
              then Some r1
              else None
        in
        (match better with
        | Some r1 ->
            Routing.Delta.commit t.eng m;
            t.live <- Keys.add k r1 t.live
        | None -> Routing.Delta.rollback t.eng m);
        (tries + 1, improved || better <> None)
      end)
    t.live (0, false)
