(* Negotiated-congestion rip-up-and-reroute (see pathfinder.mli). *)

let default_iterations = 32

let bump_iterations () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.pf_iterations <- m.Routing.Metrics.pf_iterations + 1

let bump_rips () =
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.pf_rips <- m.Routing.Metrics.pf_rips + 1

type outcome = {
  solution : Routing.Solution.t;
  report : Routing.Evaluate.report;
  iterations : int;
  rips : int;
}

(* Negotiated cost of routing [rate] more units over one link:
   base (the marginal memoized penalized power, two journal lookups)
   times the present-congestion and history factors. Dead links are
   excluded by the callers, so [phi > 0]. *)
let link_cost sc loads history ~capacity ~rate id =
  let before = Noc.Load.get loads id in
  let planned = before +. rate in
  let base =
    Routing.Delta.cost sc id planned -. Routing.Delta.cost sc id before
  in
  let phi = Noc.Load.factor loads id in
  let eff = if phi = 1. then planned else planned /. phi in
  let present =
    if eff > capacity then (eff -. capacity) /. capacity else 0.
  in
  base *. (1. +. present) *. (1. +. history.(id))

(* The candidate leaves the link inside its degraded frequency range —
   the per-link negation of "overloaded" that {!Routing.Evaluate}'s
   report applies, planned one rate ahead. *)
let link_fits model loads ~rate id =
  Power.Model.is_feasible_capped model
    ~factor:(Noc.Load.factor loads id)
    (Noc.Load.get loads id +. rate)

(* Cheapest surviving Manhattan path of the bounding rectangle under the
   negotiated cost — {!Routing.Repair.manhattan_usable_sc} with the
   congestion-shaped objective. [None] when a fault cut every rectangle
   path. *)
let manhattan_search sc loads history ~capacity (comm : Traffic.Communication.t)
    =
  let mesh = Noc.Load.mesh loads in
  let rate = comm.rate in
  let rect = Noc.Rect.make ~src:comm.src ~snk:comm.snk in
  let n = Noc.Rect.length rect in
  let best : (Noc.Coord.t, float * Noc.Coord.t option) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.replace best comm.snk (0., None);
  for k = n - 1 downto 0 do
    List.iter
      (fun core ->
        let pick =
          List.fold_left
            (fun acc (l : Noc.Mesh.link) ->
              if not (Noc.Load.usable_link loads l) then acc
              else
                match Hashtbl.find_opt best l.dst with
                | None -> acc
                | Some (tail, _) ->
                    let id = Noc.Mesh.link_id mesh l in
                    let cost =
                      tail +. link_cost sc loads history ~capacity ~rate id
                    in
                    (match acc with
                    | Some (c, _) when c <= cost -> acc
                    | _ -> Some (cost, l.dst)))
            None
            (Noc.Rect.out_links rect core)
        in
        match pick with
        | None -> ()
        | Some (cost, next) -> Hashtbl.replace best core (cost, Some next))
      (Noc.Rect.cores_on_step rect k)
  done;
  match Hashtbl.find_opt best comm.src with
  | None -> None
  | Some (cost, _) ->
      let cores = Array.make (n + 1) comm.src in
      let cur = ref comm.src in
      for i = 1 to n do
        (match Hashtbl.find best !cur with
        | _, Some next -> cur := next
        | _, None -> assert false);
        cores.(i) <- !cur
      done;
      Some (Noc.Path.of_cores cores, cost)

(* Cheapest surviving walk over the whole mesh (Dijkstra on the directed
   links, negotiated cost): the widening step when the rectangle is cut
   or congested. Ties break by fewer hops, then by the smallest core
   index and the {!Noc.Mesh.neighbors} enumeration order — fully
   deterministic, like the BFS detours of {!Routing.Repair}. *)
let widened_search sc loads history ~capacity (comm : Traffic.Communication.t)
    =
  let mesh = Noc.Load.mesh loads in
  let rate = comm.rate in
  let cols = Noc.Mesh.cols mesh in
  let idx (c : Noc.Coord.t) = ((c.row - 1) * cols) + (c.col - 1) in
  let n = Noc.Mesh.num_cores mesh in
  let coord_of = Array.make n comm.src in
  for row = 1 to Noc.Mesh.rows mesh do
    for col = 1 to cols do
      let c = Noc.Coord.make ~row ~col in
      coord_of.(idx c) <- c
    done
  done;
  let dist = Array.make n infinity in
  let hops = Array.make n max_int in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let src = idx comm.src and snk = idx comm.snk in
  dist.(src) <- 0.;
  hops.(src) <- 0;
  (try
     for _ = 1 to n do
       let u = ref (-1) in
       for v = 0 to n - 1 do
         if
           (not visited.(v))
           && dist.(v) < infinity
           && (!u < 0
              || dist.(v) < dist.(!u)
              || (dist.(v) = dist.(!u) && hops.(v) < hops.(!u)))
         then u := v
       done;
       if !u < 0 || !u = snk then raise Exit;
       visited.(!u) <- true;
       let cu = coord_of.(!u) in
       List.iter
         (fun nb ->
           let l = Noc.Mesh.link ~src:cu ~dst:nb in
           if Noc.Load.usable_link loads l then begin
             let id = Noc.Mesh.link_id mesh l in
             let c =
               dist.(!u) +. link_cost sc loads history ~capacity ~rate id
             in
             let h = hops.(!u) + 1 in
             let v = idx nb in
             if
               (not visited.(v))
               && (c < dist.(v) || (c = dist.(v) && h < hops.(v)))
             then begin
               dist.(v) <- c;
               hops.(v) <- h;
               parent.(v) <- !u
             end
           end)
         (Noc.Mesh.neighbors mesh cu)
     done
   with Exit -> ());
  if dist.(snk) = infinity then None
  else begin
    let rev = ref [ comm.snk ] in
    let cur = ref snk in
    while !cur <> src do
      let p = parent.(!cur) in
      rev := coord_of.(p) :: !rev;
      cur := p
    done;
    Some (Noc.Walk.of_cores (Array.of_list !rev), dist.(snk))
  end

(* Route one communication against the current loads (its own previous
   contribution already ripped out). Rectangle first; widen to the full
   mesh when the rectangle is cut, when the rectangle's best path still
   overloads some link, or when that path crosses a historied link —
   the last case is what lets the negotiation eventually push a
   communication {e out} of its congested rectangle: without it a path
   that fits once its own contribution is ripped would be re-chosen
   forever, however repulsive its links have become. The walk wins only
   when strictly cheaper under the negotiated cost (a cheaper walk is
   provably non-Manhattan, or the DP would have found it). *)
let search model sc loads history ~capacity (comm : Traffic.Communication.t) =
  let mesh = Noc.Load.mesh loads in
  let m = Routing.Metrics.current () in
  m.Routing.Metrics.paths_scored <- m.Routing.Metrics.paths_scored + 1;
  match manhattan_search sc loads history ~capacity comm with
  | Some (path, cost) ->
      let settled = ref true in
      Noc.Path.iter_links path (fun l ->
          let id = Noc.Mesh.link_id mesh l in
          if
            history.(id) > 0.
            || not (link_fits model loads ~rate:comm.rate id)
          then settled := false);
      if !settled then Routing.Solution.route_single comm path
      else begin
        match widened_search sc loads history ~capacity comm with
        | Some (walk, wcost) when wcost < cost ->
            Routing.Solution.route_detour comm walk
        | _ -> Routing.Solution.route_single comm path
      end
  | None -> (
      match widened_search sc loads history ~capacity comm with
      | Some (walk, _) -> Routing.Solution.route_detour comm walk
      | None -> raise (Routing.Repair.No_route comm))

(* Indices [0, n) heaviest first, ties by position: the order every pass
   (re)routes in. *)
let heaviest_first n rate =
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare (rate b) (rate a)) order;
  order

type refinement = {
  routes : Routing.Solution.route array;
  feasible : bool;
  passes : int;
  rips : int;
}

(* Negotiation sweeps over [routes], whose contribution the engine's
   loads already contain, rerouted in place. While sweeps remain and the
   report convicts some link: grow the history of every convicted link by
   one plus its effective overload factor (links that stay congested get
   ever more repulsive), then rip up and reroute {e every} candidate
   heaviest first, ties by position — the classic discipline: candidates
   not crossing a convicted link also move, clearing the way for the ones
   that do (offenders-only ripping oscillates on hard instances); only
   offenders count as rips. Each reroute runs under a journal mark, so a
   candidate whose endpoints are disconnected keeps its old route,
   restored bit-exactly. Returns the sweeps run, the rips, and whether it
   stopped on a feasible report (rather than at [sweeps]). *)
let sweep ~sweeps ~history eng routes =
  let loads = Routing.Delta.loads eng in
  let sc = Routing.Delta.scorer_of eng in
  let model = Routing.Delta.model eng in
  let mesh = Noc.Load.mesh loads in
  let capacity = model.Power.Model.capacity in
  let order =
    heaviest_first (Array.length routes) (fun i ->
        routes.(i).Routing.Solution.comm.Traffic.Communication.rate)
  in
  let reroute over rips i =
    let r = routes.(i) in
    let rips =
      if Routing.Solution.route_crosses mesh over r then begin
        bump_rips ();
        rips + 1
      end
      else rips
    in
    let m = Routing.Delta.mark eng in
    (match
       Routing.Delta.remove_route eng r;
       let r' =
         search model sc loads history ~capacity r.Routing.Solution.comm
       in
       Routing.Delta.add_route eng r';
       r'
     with
    | r' ->
        Routing.Delta.commit eng m;
        routes.(i) <- r'
    | exception Routing.Repair.No_route _ -> Routing.Delta.rollback eng m);
    rips
  in
  let rec loop passes rips =
    if passes >= sweeps then (passes, rips, false)
    else
      let rep = Routing.Delta.report eng in
      if rep.Routing.Evaluate.feasible then (passes, rips, true)
      else begin
        bump_iterations ();
        let over = Array.make (Noc.Mesh.num_links mesh) false in
        List.iter
          (fun ((l : Noc.Mesh.link), _) ->
            let id = Noc.Mesh.link_id mesh l in
            over.(id) <- true;
            let o = Noc.Load.overload loads ~capacity id in
            let o = if Float.is_finite o then o else 1. in
            history.(id) <- history.(id) +. 1. +. o)
          rep.Routing.Evaluate.overloaded;
        loop (passes + 1) (Array.fold_left (reroute over) rips order)
      end
  in
  loop 0 0

let refine ?(iterations = default_iterations) ~history eng routes =
  if iterations < 0 then invalid_arg "Pathfinder.refine: iterations < 0";
  let routes = Array.copy routes in
  let passes, rips, settled = sweep ~sweeps:iterations ~history eng routes in
  let feasible =
    settled || (Routing.Delta.report eng).Routing.Evaluate.feasible
  in
  { routes; feasible; passes; rips }

(* One initial pass routing everything heaviest first, then the
   negotiation sweeps of {!refine} on a fresh history. *)
let negotiate ?(iterations = default_iterations) ?fault model mesh comms =
  if iterations < 1 then invalid_arg "Pathfinder.negotiate: iterations < 1";
  Routing.Metrics.with_span "pathfinder" @@ fun () ->
  let eng = Routing.Delta.create ?fault model mesh in
  let loads = Routing.Delta.loads eng in
  let sc = Routing.Delta.scorer_of eng in
  let history = Array.make (Noc.Mesh.num_links mesh) 0. in
  let comms = Array.of_list comms in
  let routed = Array.make (Array.length comms) None in
  bump_iterations ();
  Array.iter
    (fun i ->
      let r =
        search model sc loads history ~capacity:model.Power.Model.capacity
          comms.(i)
      in
      Routing.Delta.add_route eng r;
      routed.(i) <- Some r)
    (heaviest_first (Array.length comms) (fun i ->
         comms.(i).Traffic.Communication.rate));
  let routes = Array.map Option.get routed in
  let passes, rips, _ = sweep ~sweeps:(iterations - 1) ~history eng routes in
  (* Canonical rebuild: re-accumulate the final routes in input order,
     exactly as {!Routing.Solution.loads} would, so the incremental
     report below is the very report a from-scratch
     [Evaluate.of_loads] computes on this solution — the rip-up
     history's float cancellations never leak into the result. *)
  let final = Array.to_list routes in
  let canonical = Routing.Delta.create ?fault model mesh in
  List.iter (Routing.Delta.add_route canonical) final;
  {
    solution = Routing.Solution.make mesh final;
    report = Routing.Delta.report canonical;
    iterations = 1 + passes;
    rips;
  }

type annotation = { a_iterations : int; a_rips : int; a_kept : bool }

(* The negotiation stats of the last [engine] run, for [manroute inspect]
   and the campaign audit capture. *)
let annotation = Routing.Heuristic.Stash.create ()
let take_annotation () = Routing.Heuristic.Stash.take annotation

let engine ?iterations ?fault model mesh comms =
  Routing.Heuristic.Stash.set annotation None;
  if comms = [] then Routing.Solution.make mesh []
  else begin
    let pf = negotiate ?iterations ?fault model mesh comms in
    let base = Routing.Best.baseline ?fault model mesh comms in
    let kept =
      Routing.Best.no_worse ?fault model pf.solution pf.report ~than:base
    in
    Routing.Heuristic.Stash.set annotation
      (Some { a_iterations = pf.iterations; a_rips = pf.rips; a_kept = kept });
    if kept then pf.solution else base.Routing.Best.solution
  end

let heuristic ?name ?iterations () =
  (match iterations with
  | Some i when i < 1 -> invalid_arg "Pathfinder.heuristic: iterations < 1"
  | _ -> ());
  let name = match name with Some n -> n | None -> "PF" in
  Routing.Heuristic.of_fault_aware ~name
    ~description:
      (Printf.sprintf
         "negotiated congestion: PathFinder rip-up-and-reroute over the \
          delta journal, <= %d iterations"
         (Option.value ~default:default_iterations iterations))
    (fun ?fault model mesh comms -> engine ?iterations ?fault model mesh comms)

let find name =
  Option.map
    (fun iterations ->
      heuristic ~name:(Printf.sprintf "PF%d" iterations) ~iterations ())
    (Routing.Heuristic.family ~prefix:"pf" ~default:default_iterations ~min:1
       name)
