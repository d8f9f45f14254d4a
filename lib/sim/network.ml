type event =
  | Injected of { cycle : int; comm_id : int; packet : int }
  | Delivered of { cycle : int; comm_id : int; packet : int; latency : int }
  | Escaped of { cycle : int; comm_id : int; packet : int }
  | Deadlock of { cycle : int }
  | Link_killed of { cycle : int; link : Noc.Mesh.link }

(* The data plane allocates nothing per cycle: per-(link, VC) state
   lives in flat int arrays indexed by [q = link * num_vcs + vc], flits
   are ints in fixed rings of [buffer_flits] per (link, VC), and packets
   are slots of a slab. A flit is its packet's slot shifted left twice,
   with the head and tail flags in the two low bits. *)
let head_bit = 2
let tail_bit = 1

(* Per-link and per-(link, VC) state. *)
type buffers = {
  nlinks : int;
  vcs : int;
  depth : int;  (* buffer_flits *)
  rate : float array;  (* flits/cycle per link *)
  credit : float array;
  rr : int array;  (* round-robin pointer per output link *)
  link_flits : int array;  (* measured traversals per link *)
  flits : int array;  (* ring of q at [q * depth ..]: buffered at the link's dst *)
  stamps : int array;  (* arrival cycle of each ring cell *)
  head : int array;  (* per q: ring start *)
  len : int array;  (* per q: flits buffered *)
  owner : int array;  (* per q: packet slot or -1 *)
  next_out : int array;  (* per q: allocated out link or -1 *)
  next_vc : int array;  (* per q: allocated out VC *)
  wait : int array;  (* per q: cycles its head has waited for an out VC *)
  hop : int array;
      (* per q: the owner's position on its route, stored when its head
         arrives, so a route may pass a core or link twice *)
}

(* Live packets, indexed by slot. A packet shares its path's route array
   (link ids, source core to sink core) until an escape rewrites it. *)
type packets = {
  id : int array;
  comm : int array;  (* injector index *)
  route : int array array;
  born : int array;  (* injection cycle *)
  escaped : bool array;
  free : int array;  (* stack of free slots *)
  mutable nfree : int;
}

type injector = {
  comm : Traffic.Communication.t;
  router : int;  (* row-major index of the source core *)
  routes : int array array;  (* per path: link ids *)
  shares : float array;  (* per path: share of the communication's rate *)
  flit_rate : float;  (* injected flits per cycle *)
  sent_per_path : float array;
  mutable sent : int;  (* whole-run packets generated *)
  (* One pending stream per path, so a path blocked at the source does not
     hold back the others: *)
  pending : int array array;  (* per path: ring of packet slots *)
  p_head : int array;
  p_len : int array;
  emit_count : int array;  (* per path: flits of the head packet emitted *)
  emit_vc : int array;  (* per path: VC allocated for the head packet *)
  mutable injected : int;
  mutable delivered : int;
  mutable flits_delivered : int;
  mutable escaped_done : int;
  mutable latency_sum : int;
  mutable latencies : int array;  (* measured-window tail latencies *)
  mutable n_latencies : int;
}

(* Mesh-derived tables, a pure function of the mesh shape. Routers are
   numbered row-major. *)
type topology = {
  rows : int;
  cols : int;
  inputs_of : int array array;  (* per link: links into its source router *)
  src_router : int array;  (* per link *)
  dst_router : int array;  (* per link *)
}

type t = {
  config : Config.t;
  mesh : Noc.Mesh.t;
  b : buffers;
  top : topology;
  busy : int array;
      (* Per router: flits buffered at its inputs plus packets pending at
         its injectors. An idle router has nothing to arbitrate. *)
  reqs : int array;
      (* Requesters of output link l at [req_start.(l) .. req_start.(l+1)):
         input (link, VC) q as [q], injector ci as [-(ci + 1)]. *)
  req_start : int array;
  injectors : injector array;
  acc : float array;  (* per injector: offered flits not yet packetized *)
  pk : packets;
  mutable next_packet_id : int;
  mutable cycle : int;
  mutable flits_in_flight : int;
  mutable total_injected : int;  (* whole-run flits entering the network *)
  mutable total_ejected : int;  (* whole-run flits consumed at their sink *)
  mutable last_progress : int;
  mutable measuring : bool;
  mutable measured_cycles : int;
  mutable flits_moved : int;
  mutable ran : bool;
  mutable observer : (event -> unit) option;
  mutable kills : (int * int) list;  (* (absolute cycle, link id) pending *)
}

let path_links mesh path =
  Array.map (Noc.Mesh.link_id mesh) (Noc.Path.links path)

let walk_links mesh walk =
  Array.map (Noc.Mesh.link_id mesh) (Noc.Walk.links walk)

(* ---------------- reusable arenas ---------------- *)

(* A campaign sweeps many solutions over the same mesh; allocating the
   buffers afresh for every simulation is an allocation storm under the
   worker pool. An arena caches the buffers (keyed by links, VCs and
   buffer depth), the packet slab and the mesh-derived topology, and
   {!create} resets them to exactly the state a fresh allocation would
   have — a network built in an arena is bit-identical to a fresh one, it
   just skips the allocator. Only the most recent network built in an
   arena is valid: building the next one recycles the buffers under the
   previous network's feet. *)
module Arena = struct
  type t = {
    mutable buffers : buffers option;
    mutable packets : packets option;
    mutable topology : topology option;
  }

  let create () = { buffers = None; packets = None; topology = None }

  (* One arena per domain: workers of the Monte-Carlo pool each get
     their own buffers, so arena reuse is race-free by construction. *)
  let key = Domain.DLS.new_key create
  let domain () = Domain.DLS.get key
end

let link_rate config model load =
  let cap = model.Power.Model.capacity in
  match Power.Model.required_frequency model load with
  | Some 0. ->
      if config.Config.idle_links_min_level then
        (match model.Power.Model.mode with
        | Power.Model.Discrete levels -> levels.(0) /. cap
        | Power.Model.Continuous -> 1.)
      else 0.
  | Some f -> f /. cap
  | None -> 1. (* overloaded link: clock it flat out and let it saturate *)

(* Buffers for one network: recycled from the arena when the shape
   matches, freshly allocated (and stashed for next time) otherwise.
   Reset rewrites every cell a fresh allocation would start from, except
   the rates, which [create] sets, and the ring cells, which are never
   read beyond [len]. *)
let buffers_for ~arena ~nlinks ~vcs ~depth =
  let nq = nlinks * vcs in
  let fresh () =
    {
      nlinks;
      vcs;
      depth;
      rate = Array.make nlinks 0.;
      credit = Array.make nlinks 0.;
      rr = Array.make nlinks 0;
      link_flits = Array.make nlinks 0;
      flits = Array.make (nq * depth) 0;
      stamps = Array.make (nq * depth) 0;
      head = Array.make nq 0;
      len = Array.make nq 0;
      owner = Array.make nq (-1);
      next_out = Array.make nq (-1);
      next_vc = Array.make nq (-1);
      wait = Array.make nq 0;
      hop = Array.make nq 0;
    }
  in
  match arena with
  | None -> fresh ()
  | Some (a : Arena.t) -> (
      match a.buffers with
      | Some b when b.nlinks = nlinks && b.vcs = vcs && b.depth = depth ->
          Array.fill b.credit 0 nlinks 0.;
          Array.fill b.rr 0 nlinks 0;
          Array.fill b.link_flits 0 nlinks 0;
          List.iter
            (fun (a, x) -> Array.fill a 0 nq x)
            [ (b.head, 0); (b.len, 0); (b.owner, -1); (b.next_out, -1);
              (b.next_vc, -1); (b.wait, 0); (b.hop, 0) ];
          b
      | _ ->
          let b = fresh () in
          a.buffers <- Some b;
          b)

(* A slab of at least [capacity] slots, all free: recycled from the arena
   when it is large enough. *)
let packets_for ~arena ~capacity =
  let fresh () =
    {
      id = Array.make capacity 0;
      comm = Array.make capacity 0;
      route = Array.make capacity [||];
      born = Array.make capacity 0;
      escaped = Array.make capacity false;
      free = Array.init capacity Fun.id;
      nfree = capacity;
    }
  in
  match arena with
  | None -> fresh ()
  | Some (a : Arena.t) -> (
      match a.packets with
      | Some pk when Array.length pk.id >= capacity ->
          Array.iteri (fun i _ -> pk.free.(i) <- i) pk.free;
          Array.fill pk.route 0 (Array.length pk.route) [||];
          pk.nfree <- Array.length pk.free;
          pk
      | _ ->
          let pk = fresh () in
          a.packets <- Some pk;
          pk)

let router mesh (c : Noc.Coord.t) = ((c.row - 1) * Noc.Mesh.cols mesh) + c.col - 1

let topology mesh =
  let ends = Array.init (Noc.Mesh.num_links mesh) (Noc.Mesh.link_of_id mesh) in
  let into (core : Noc.Coord.t) =
    Array.of_list
      (List.map
         (fun nb -> Noc.Mesh.link_id mesh (Noc.Mesh.link ~src:nb ~dst:core))
         (Noc.Mesh.neighbors mesh core))
  in
  {
    rows = Noc.Mesh.rows mesh;
    cols = Noc.Mesh.cols mesh;
    inputs_of = Array.map (fun (e : Noc.Mesh.link) -> into e.src) ends;
    src_router = Array.map (fun (e : Noc.Mesh.link) -> router mesh e.src) ends;
    dst_router = Array.map (fun (e : Noc.Mesh.link) -> router mesh e.dst) ends;
  }

let topology_for ~arena mesh =
  match arena with
  | Some ({ Arena.topology = Some top; _ } : Arena.t)
    when top.rows = Noc.Mesh.rows mesh && top.cols = Noc.Mesh.cols mesh ->
      top
  | Some a ->
      let top = topology mesh in
      a.Arena.topology <- Some top;
      top
  | None -> topology mesh

(* The requesters of every output link, in round-robin order: each input
   link feeding its source router with all its VCs, then the injectors
   at that router in communication order. *)
let requesters top ~vcs injectors =
  let at_router = Array.make (top.rows * top.cols) [] in
  for ci = Array.length injectors - 1 downto 0 do
    let r = injectors.(ci).router in
    at_router.(r) <- -(ci + 1) :: at_router.(r)
  done;
  let nlinks = Array.length top.inputs_of in
  let req_start = Array.make (nlinks + 1) 0 in
  for l = 0 to nlinks - 1 do
    req_start.(l + 1) <-
      req_start.(l)
      + (Array.length top.inputs_of.(l) * vcs)
      + List.length at_router.(top.src_router.(l))
  done;
  let reqs = Array.make req_start.(nlinks) 0 in
  for l = 0 to nlinks - 1 do
    let k = ref req_start.(l) in
    let add r =
      reqs.(!k) <- r;
      incr k
    in
    Array.iter
      (fun l_in ->
        for v = 0 to vcs - 1 do
          add ((l_in * vcs) + v)
        done)
      top.inputs_of.(l);
    List.iter add at_router.(top.src_router.(l))
  done;
  (reqs, req_start)

let create ?(config = Config.default) ?arena model solution =
  Config.validate config;
  let mesh = Routing.Solution.mesh solution in
  let nlinks = Noc.Mesh.num_links mesh in
  let loads = Routing.Solution.loads solution in
  let vcs = config.Config.num_vcs in
  let b = buffers_for ~arena ~nlinks ~vcs ~depth:config.Config.buffer_flits in
  for l = 0 to nlinks - 1 do
    b.rate.(l) <- link_rate config model (Noc.Load.get loads l)
  done;
  let injectors =
    Array.of_list
      (List.map
         (fun (r : Routing.Solution.route) ->
           let total = r.comm.Traffic.Communication.rate in
           let all_routes =
             List.map
               (fun (p, share) -> (path_links mesh p, share /. total))
               r.paths
             @ List.map
                 (fun (w, share) -> (walk_links mesh w, share /. total))
                 r.detours
           in
           let paths = List.length all_routes in
           {
             comm = r.comm;
             router = router mesh r.comm.Traffic.Communication.src;
             routes = Array.of_list (List.map fst all_routes);
             shares = Array.of_list (List.map snd all_routes);
             flit_rate = total /. model.Power.Model.capacity;
             sent_per_path = Array.make paths 0.;
             sent = 0;
             pending =
               Array.init paths (fun _ ->
                   Array.make config.Config.max_pending_packets 0);
             p_head = Array.make paths 0;
             p_len = Array.make paths 0;
             emit_count = Array.make paths 0;
             emit_vc = Array.make paths (-1);
             injected = 0;
             delivered = 0;
             flits_delivered = 0;
             escaped_done = 0;
             latency_sum = 0;
             latencies = Array.make 64 0;
             n_latencies = 0;
           })
         (Routing.Solution.routes solution))
  in
  let top = topology_for ~arena mesh in
  let reqs, req_start = requesters top ~vcs injectors in
  (* A live packet either waits at its source or owns the (link, VC)
     holding its tail flit. *)
  let capacity =
    Array.fold_left
      (fun n inj ->
        n + (Array.length inj.routes * config.Config.max_pending_packets))
      (nlinks * vcs) injectors
  in
  {
    config;
    mesh;
    b;
    top;
    busy = Array.make (Noc.Mesh.num_cores mesh) 0;
    reqs;
    req_start;
    injectors;
    acc = Array.make (Array.length injectors) 0.;
    pk = packets_for ~arena ~capacity;
    next_packet_id = 0;
    cycle = 0;
    flits_in_flight = 0;
    total_injected = 0;
    total_ejected = 0;
    last_progress = 0;
    measuring = false;
    measured_cycles = 0;
    flits_moved = 0;
    ran = false;
    observer = None;
    kills = [];
  }

let set_observer t f = t.observer <- Some f

let emit t event =
  match t.observer with Some f -> f event | None -> ()

let schedule_link_kill t ~cycle link =
  if not (Noc.Mesh.link_exists t.mesh link) then
    invalid_arg
      (Format.asprintf "Network.schedule_link_kill: no link %a"
         Noc.Mesh.pp_link link);
  if cycle < 0 then invalid_arg "Network.schedule_link_kill: cycle < 0";
  t.kills <- (cycle, Noc.Mesh.link_id t.mesh link) :: t.kills

let rec any_due cycle = function
  | [] -> false
  | (c, _) :: rest -> c <= cycle || any_due cycle rest

let apply_kills t =
  if any_due t.cycle t.kills then begin
    let due, rest = List.partition (fun (c, _) -> c <= t.cycle) t.kills in
    t.kills <- rest;
    List.iter
      (fun (_, l) ->
        t.b.rate.(l) <- 0.;
        t.b.credit.(l) <- 0.;
        emit t
          (Link_killed
             { cycle = t.cycle; link = Noc.Mesh.link_of_id t.mesh l }))
      due
  end

(* ---------------- packets and rings ---------------- *)

let alloc_packet t ~comm ~route =
  let pk = t.pk in
  pk.nfree <- pk.nfree - 1;
  let slot = pk.free.(pk.nfree) in
  pk.id.(slot) <- t.next_packet_id;
  pk.comm.(slot) <- comm;
  pk.route.(slot) <- route;
  pk.born.(slot) <- t.cycle;
  pk.escaped.(slot) <- false;
  t.next_packet_id <- t.next_packet_id + 1;
  slot

let free_packet t slot =
  let pk = t.pk in
  pk.route.(slot) <- [||];
  pk.free.(pk.nfree) <- slot;
  pk.nfree <- pk.nfree + 1

(* Ring cell of the oldest flit buffered at (link, VC) [q]. *)
let front b q = (q * b.depth) + b.head.(q)

let pop t q =
  let b = t.b in
  let h = b.head.(q) + 1 in
  b.head.(q) <- (if h = b.depth then 0 else h);
  b.len.(q) <- b.len.(q) - 1;
  let r = t.top.dst_router.(q / b.vcs) in
  t.busy.(r) <- t.busy.(r) - 1

let push t q flit =
  let b = t.b in
  let i = b.head.(q) + b.len.(q) in
  let cell = (q * b.depth) + if i >= b.depth then i - b.depth else i in
  b.flits.(cell) <- flit;
  b.stamps.(cell) <- t.cycle;
  b.len.(q) <- b.len.(q) + 1;
  let r = t.top.dst_router.(q / b.vcs) in
  t.busy.(r) <- t.busy.(r) + 1

let escape_vc_of t = t.b.vcs - 1

let normal_vcs t = if t.config.Config.escape_vc then t.b.vcs - 1 else t.b.vcs

(* ---------------- injection ---------------- *)

(* Deficit rule: the path whose share of the packets generated so far
   lags the most, the first on ties. *)
let choose_path inj =
  let n = float_of_int (inj.sent + 1) in
  let best = ref 0 in
  for i = 1 to Array.length inj.shares - 1 do
    let j = !best in
    if
      (inj.shares.(i) *. n) -. inj.sent_per_path.(i)
      > (inj.shares.(j) *. n) -. inj.sent_per_path.(j)
    then best := i
  done;
  !best

let inject_new_packets t =
  let pf = float_of_int t.config.Config.packet_flits in
  let max_pending = t.config.Config.max_pending_packets in
  for ci = 0 to Array.length t.injectors - 1 do
    let inj = t.injectors.(ci) in
    t.acc.(ci) <- t.acc.(ci) +. inj.flit_rate;
    while t.acc.(ci) >= pf && inj.p_len.(choose_path inj) < max_pending do
      t.acc.(ci) <- t.acc.(ci) -. pf;
      let p = choose_path inj in
      inj.sent_per_path.(p) <- inj.sent_per_path.(p) +. 1.;
      inj.sent <- inj.sent + 1;
      let slot = alloc_packet t ~comm:ci ~route:inj.routes.(p) in
      inj.pending.(p).((inj.p_head.(p) + inj.p_len.(p)) mod max_pending) <- slot;
      inj.p_len.(p) <- inj.p_len.(p) + 1;
      t.busy.(inj.router) <- t.busy.(inj.router) + 1;
      inj.injected <- inj.injected + 1;
      match t.observer with
      | None -> ()
      | Some f ->
          f (Injected
               { cycle = t.cycle; comm_id = inj.comm.Traffic.Communication.id;
                 packet = t.pk.id.(slot) })
    done;
    (* Without pending room the offered load is dropped: saturation. *)
    if t.acc.(ci) >= pf then t.acc.(ci) <- pf
  done

(* ---------------- ejection ---------------- *)

let record_latency inj lat =
  if inj.n_latencies = Array.length inj.latencies then
    inj.latencies <- Array.append inj.latencies inj.latencies;
  inj.latencies.(inj.n_latencies) <- lat;
  inj.n_latencies <- inj.n_latencies + 1

let eject t =
  let b = t.b and pk = t.pk in
  let latency = t.config.Config.router_latency in
  for q = 0 to (b.nlinks * b.vcs) - 1 do
    if b.len.(q) > 0 then begin
      let cell = front b q in
      let flit = b.flits.(cell) in
      let slot = flit lsr 2 in
      if
        b.stamps.(cell) + latency <= t.cycle
        && b.hop.(q) = Array.length pk.route.(slot) - 1
      then begin
        (* Arrived: consume one flit per cycle per stream. *)
        pop t q;
        t.flits_in_flight <- t.flits_in_flight - 1;
        t.total_ejected <- t.total_ejected + 1;
        t.last_progress <- t.cycle;
        let inj = t.injectors.(pk.comm.(slot)) in
        if t.measuring then inj.flits_delivered <- inj.flits_delivered + 1;
        if flit land tail_bit <> 0 then begin
          b.owner.(q) <- -1;
          b.next_out.(q) <- -1;
          inj.delivered <- inj.delivered + 1;
          if pk.escaped.(slot) then inj.escaped_done <- inj.escaped_done + 1;
          let lat = t.cycle - pk.born.(slot) in
          inj.latency_sum <- inj.latency_sum + lat;
          if t.measuring then record_latency inj lat;
          (match t.observer with
          | None -> ()
          | Some f ->
              f (Delivered
                   { cycle = t.cycle;
                     comm_id = inj.comm.Traffic.Communication.id;
                     packet = pk.id.(slot); latency = lat }));
          free_packet t slot
        end
      end
    end
  done

(* ---------------- switch arbitration ---------------- *)

(* First VC of [l_out] in [w, last] that is unowned with buffer room,
   or -1. *)
let rec free_vc b l_out w last =
  if w > last then -1
  else
    let q = (l_out * b.vcs) + w in
    if b.owner.(q) = -1 && b.len.(q) < b.depth then w
    else free_vc b l_out (w + 1) last

(* VC allocation for a head flit: the escape VC for an escaped packet,
   the first free normal VC otherwise; -1 when none is free. *)
let allocate t l_out slot =
  if t.pk.escaped.(slot) then
    free_vc t.b l_out (escape_vc_of t) (escape_vc_of t)
  else free_vc t.b l_out 0 (normal_vcs t - 1)

(* Moves [flit] across [l_out] into VC [w]; a head flit takes ownership
   of the VC and records its position [hop] on the route. *)
let deliver t l_out w flit hop =
  let b = t.b in
  let q = (l_out * b.vcs) + w in
  push t q flit;
  if flit land head_bit <> 0 then begin
    b.owner.(q) <- flit lsr 2;
    b.hop.(q) <- hop
  end;
  b.credit.(l_out) <- b.credit.(l_out) -. 1.;
  t.flits_moved <- t.flits_moved + 1;
  if t.measuring then b.link_flits.(l_out) <- b.link_flits.(l_out) + 1;
  t.last_progress <- t.cycle

(* Whether input (link, VC) [q] has a flit ready to cross [l_out] now;
   if so, moves it (allocating an output VC for a head flit). *)
let try_from t l_out q =
  let b = t.b in
  b.len.(q) > 0
  &&
  let cell = front b q in
  b.stamps.(cell) + t.config.Config.router_latency <= t.cycle
  &&
  let flit = b.flits.(cell) in
  let slot = flit lsr 2 in
  let route = t.pk.route.(slot) in
  let hop = b.hop.(q) + 1 in
  hop < Array.length route
  && route.(hop) = l_out
  &&
  let is_head = flit land head_bit <> 0 in
  let lo = b.next_out.(q) in
  let w =
    if lo >= 0 then if lo = l_out && not is_head then b.next_vc.(q) else -1
    else if is_head then allocate t l_out slot
    else -1
  in
  w >= 0
  && b.len.((l_out * b.vcs) + w) < b.depth
  && begin
       pop t q;
       b.wait.(q) <- 0;
       if is_head then begin
         b.next_out.(q) <- l_out;
         b.next_vc.(q) <- w
       end;
       if flit land tail_bit <> 0 then begin
         b.owner.(q) <- -1;
         b.next_out.(q) <- -1
       end;
       deliver t l_out w flit hop;
       true
     end

(* Whether the pending stream of path [p] has a flit ready to enter
   [l_out] now; if so, emits it. *)
let try_path t l_out inj p =
  inj.p_len.(p) > 0
  && inj.routes.(p).(0) = l_out
  &&
  let slot = inj.pending.(p).(inj.p_head.(p)) in
  let is_head = inj.emit_count.(p) = 0 in
  let w = if is_head then allocate t l_out slot else inj.emit_vc.(p) in
  w >= 0
  && t.b.len.((l_out * t.b.vcs) + w) < t.b.depth
  && begin
       let is_tail = inj.emit_count.(p) = t.config.Config.packet_flits - 1 in
       if is_head then inj.emit_vc.(p) <- w;
       inj.emit_count.(p) <- inj.emit_count.(p) + 1;
       t.flits_in_flight <- t.flits_in_flight + 1;
       t.total_injected <- t.total_injected + 1;
       if is_tail then begin
         inj.p_head.(p) <- (inj.p_head.(p) + 1) mod Array.length inj.pending.(p);
         inj.p_len.(p) <- inj.p_len.(p) - 1;
         t.busy.(inj.router) <- t.busy.(inj.router) - 1;
         inj.emit_count.(p) <- 0;
         inj.emit_vc.(p) <- -1
       end;
       let flit =
         (slot lsl 2)
         lor (if is_head then head_bit else 0)
         lor if is_tail then tail_bit else 0
       in
       deliver t l_out w flit 0;
       true
     end

(* Whether the injector has a flit ready to enter [l_out] now, serving
   its paths from [p] on in order; if so, emits it. *)
let rec try_inject t l_out inj p =
  p < Array.length inj.routes
  && (try_path t l_out inj p || try_inject t l_out inj (p + 1))

let arbitrate t =
  let b = t.b in
  for l_out = 0 to b.nlinks - 1 do
    let c = b.credit.(l_out) +. b.rate.(l_out) in
    b.credit.(l_out) <- (if c < 2. then c else 2.);
    let base = t.req_start.(l_out) in
    let n = t.req_start.(l_out + 1) - base in
    if b.credit.(l_out) >= 1. && n > 0 && t.busy.(t.top.src_router.(l_out)) > 0
    then begin
      let start = b.rr.(l_out) mod n in
      let k = ref 0 in
      while !k < n do
        let i = start + !k in
        let i = if i >= n then i - n else i in
        let r = t.reqs.(base + i) in
        if
          if r >= 0 then try_from t l_out r
          else try_inject t l_out t.injectors.(-r - 1) 0
        then begin
          b.rr.(l_out) <- i + 1;
          k := n
        end
        else incr k
      done
    end
  done

(* ---------------- escape ---------------- *)

(* The head of the packet in [slot] blocks at (link, VC) [q]: keep the
   links already traversed and finish dimension-ordered. *)
let reroute_via_xy t slot q =
  let snk = t.injectors.(t.pk.comm.(slot)).comm.Traffic.Communication.snk in
  let current_core = (Noc.Mesh.link_of_id t.mesh (q / t.b.vcs)).Noc.Mesh.dst in
  if not (Noc.Coord.equal current_core snk) then begin
    let traversed = Array.sub t.pk.route.(slot) 0 (t.b.hop.(q) + 1) in
    let xy = path_links t.mesh (Noc.Path.xy ~src:current_core ~snk) in
    t.pk.route.(slot) <- Array.append traversed xy;
    t.pk.escaped.(slot) <- true
  end

let trigger_escapes t =
  let b = t.b in
  if t.config.Config.escape_vc then
    for q = 0 to (b.nlinks * b.vcs) - 1 do
      let flit = if b.len.(q) > 0 then b.flits.(front b q) else 0 in
      if flit land head_bit <> 0 && b.next_out.(q) = -1 then begin
        b.wait.(q) <- b.wait.(q) + 1;
        let slot = flit lsr 2 in
        if
          b.wait.(q) >= t.config.Config.escape_patience
          && (not t.pk.escaped.(slot))
          && q mod b.vcs <> escape_vc_of t
        then begin
          reroute_via_xy t slot q;
          (match t.observer with
          | None -> ()
          | Some f ->
              f (Escaped
                   { cycle = t.cycle;
                     comm_id =
                       t.injectors.(t.pk.comm.(slot)).comm.Traffic.Communication.id;
                     packet = t.pk.id.(slot) }));
          b.wait.(q) <- 0
        end
      end
      else b.wait.(q) <- 0
    done

(* ---------------- main loop ---------------- *)

let step t =
  t.cycle <- t.cycle + 1;
  apply_kills t;
  inject_new_packets t;
  eject t;
  arbitrate t;
  trigger_escapes t;
  if t.measuring then t.measured_cycles <- t.measured_cycles + 1

type comm_stats = {
  comm : Traffic.Communication.t;
  packets_injected : int;
  packets_delivered : int;
  flits_delivered : int;
  escaped_packets : int;
  mean_latency : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  requested_rate : float;
  delivered_rate : float;
}

type report = {
  cycles : int;
  comms : comm_stats list;
  flits_moved : int;
  deadlocked : bool;
  max_link_utilization : float;
  link_utilization : (int * float) array;
      (* per link id, measured flits per cycle, id order *)
  latency_p50 : float;
  latency_p95 : float;
  injected_flits : int;
  ejected_flits : int;
  in_flight_flits : int;
  early_exit : bool;
}

(* The injector's measured latencies, sorted. *)
let sorted_latencies inj =
  let a = Array.sub inj.latencies 0 inj.n_latencies in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of sorted latencies. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))

(* One convergence probe per injector: the delivered rate and the latency
   quantiles measured so far. *)
let probe_injector measured (inj : injector) =
  let rate =
    if measured = 0 then 0.
    else
      float_of_int inj.flits_delivered /. float_of_int measured
      *. (inj.comm.Traffic.Communication.rate /. inj.flit_rate)
  in
  let sorted = sorted_latencies inj in
  (rate, percentile sorted 0.50, percentile sorted 0.95)

(* Convergence between two probes of the same injector, within the
   relative tolerance [tol]: the delivered rate must have reached the
   request (an overloaded link keeps [delivered < requested] forever and
   therefore never converges) and the rate and both quantiles must have
   stopped moving. NaN quantiles (nothing delivered yet) never pass the
   comparisons, so an idle window cannot fake convergence — except for a
   genuinely zero-rate communication, which is vacuously converged. *)
let probe_stable ~tol (inj : injector) (r0, p50_0, p95_0) (r1, p50_1, p95_1) =
  let requested = inj.comm.Traffic.Communication.rate in
  let close scale a b = Float.abs (a -. b) <= tol *. Float.max scale 1. in
  requested <= 0.
  || (r1 >= (1. -. tol) *. requested
     && close requested r0 r1
     && close p50_1 p50_0 p50_1
     && close p95_1 p95_0 p95_1)

let run ?warmup ?tolerance t ~cycles =
  if t.ran then invalid_arg "Sim.Network.run: already run";
  if cycles <= 0 then invalid_arg "Sim.Network.run: cycles must be positive";
  (match warmup with
  | Some w when w < 0 -> invalid_arg "Sim.Network.run: negative warmup"
  | _ -> ());
  (match tolerance with
  | Some tol when (not (Float.is_finite tol)) || tol <= 0. ->
      invalid_arg "Sim.Network.run: tolerance must be positive"
  | _ -> ());
  t.ran <- true;
  let warmup = match warmup with Some w -> w | None -> cycles / 5 in
  let deadlocked = ref false in
  let early = ref false in
  (* Early-exit checkpoints: every [chunk] measured cycles, compare the
     per-communication probes against the previous checkpoint's. *)
  let chunk = max 128 (cycles / 16) in
  let prev_probe = ref None in
  let window = t.config.Config.deadlock_window in
  let total = warmup + cycles in
  (try
     for c = 1 to total do
       if c = warmup + 1 then begin
         t.measuring <- true;
         (* Reset measured counters at the warmup boundary. *)
         Array.iter
           (fun (inj : injector) ->
             inj.flits_delivered <- 0;
             inj.delivered <- 0;
             inj.escaped_done <- 0;
             inj.latency_sum <- 0;
             inj.n_latencies <- 0;
             inj.injected <- 0)
           t.injectors;
         Array.fill t.b.link_flits 0 t.b.nlinks 0
       end;
       step t;
       if t.flits_in_flight > 0 && t.cycle - t.last_progress > window then begin
         deadlocked := true;
         emit t (Deadlock { cycle = t.cycle });
         raise Exit
       end;
       (match tolerance with
       | Some tol
         when t.measuring
              && t.measured_cycles mod chunk = 0
              && t.measured_cycles < cycles ->
           let cur =
             Array.map (probe_injector t.measured_cycles) t.injectors
           in
           let stable prev =
             let n = Array.length t.injectors in
             let rec go i =
               i >= n
               || (probe_stable ~tol t.injectors.(i) prev.(i) cur.(i)
                  && go (i + 1))
             in
             go 0
           in
           (match !prev_probe with
           | Some prev when stable prev ->
               early := true;
               raise Exit
           | _ -> ());
           prev_probe := Some cur
       | _ -> ())
     done
   with Exit -> ());
  let measured = max 1 t.measured_cycles in
  let cap = ref 0. in
  Array.iter
    (fun n ->
      let u = float_of_int n /. float_of_int measured in
      if u > !cap then cap := u)
    t.b.link_flits;
  (* Pooled quantiles over every measured tail latency — the
     campaign-level latency objective. *)
  let pooled =
    Array.concat
      (Array.to_list
         (Array.map (fun inj -> Array.sub inj.latencies 0 inj.n_latencies) t.injectors))
  in
  Array.sort Int.compare pooled;
  {
    cycles = measured;
    comms =
      Array.to_list
        (Array.map
           (fun (inj : injector) ->
             let sorted = sorted_latencies inj in
             {
               comm = inj.comm;
               packets_injected = inj.injected;
               packets_delivered = inj.delivered;
               flits_delivered = inj.flits_delivered;
               escaped_packets = inj.escaped_done;
               mean_latency =
                 (if inj.delivered = 0 then Float.nan
                  else float_of_int inj.latency_sum /. float_of_int inj.delivered);
               latency_p50 = percentile sorted 0.50;
               latency_p95 = percentile sorted 0.95;
               latency_p99 = percentile sorted 0.99;
               requested_rate = inj.comm.Traffic.Communication.rate;
               delivered_rate =
                 float_of_int inj.flits_delivered
                 /. float_of_int measured
                 *. (inj.comm.Traffic.Communication.rate /. inj.flit_rate);
             })
           t.injectors);
    flits_moved = t.flits_moved;
    deadlocked = !deadlocked;
    max_link_utilization = !cap;
    link_utilization =
      Array.mapi
        (fun l n -> (l, float_of_int n /. float_of_int measured))
        t.b.link_flits;
    latency_p50 = percentile pooled 0.50;
    latency_p95 = percentile pooled 0.95;
    injected_flits = t.total_injected;
    ejected_flits = t.total_ejected;
    in_flight_flits = t.flits_in_flight;
    early_exit = !early;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>sim: %d measured cycles%s, %d flit moves%s@,"
    r.cycles
    (if r.early_exit then " (early exit)" else "")
    r.flits_moved
    (if r.deadlocked then " [DEADLOCK]" else "");
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  %a: delivered %.0f/%.0f Mb/s, %d pkts, latency %.1f, escaped %d@,"
        Traffic.Communication.pp s.comm s.delivered_rate s.requested_rate
        s.packets_delivered s.mean_latency s.escaped_packets)
    r.comms;
  Format.fprintf ppf "max link utilization: %.3f@]" r.max_link_utilization
