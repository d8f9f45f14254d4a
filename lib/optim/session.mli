(** One incremental routing session: the live routes of an instance, kept
    in a canonical order over one {!Routing.Delta} engine, and the
    escalation ladder the incremental engines climb when an event leaves
    the state infeasible. {!Recover} adapts it to fault events, {!Online}
    to arrivals and departures.

    Routes live under integer keys; ascending key order is the canonical
    order. {!Recover} keys by position in the adopted solution, so a
    readmitted communication returns to its old slot; {!Online} keys by
    admission ({!append}), so a readmitted one joins the end.

    {b The ladder.} Every rung is scored through the engine's
    mark/rollback journal; the adapter picks the rungs an event climbs
    and numbers them in its reports:

    + {b keep} — routes whose links all survive stay untouched ({!keep});
    + {b local repair} — the cheapest surviving Manhattan path of the
      rectangle under the current loads, else the shortest surviving
      detour walk ({!repair}, via {!Routing.Repair.manhattan_usable_sc} /
      {!Routing.Repair.detour});
    + {b neighborhood negotiation} — PathFinder rip-up-and-reroute
      ({!Pathfinder.refine}) restricted to the routes crossing the
      event's or the report's links, under a small sweep cap
      ({!negotiate});
    + {b global negotiation} — the same over every live route;
    + {b shedding} — remove the lightest route crossing a convicted link
      (the earliest in canonical order on ties) until the state is
      feasible ({!shed}). Never a crash: the empty state is feasible.

    Shed traffic is later offered {b speculative readmission}
    ({!readmit}): kept only when the whole state stays feasible, rolled
    back bit-exactly otherwise. The negotiation history belongs to the
    session, so links that keep congesting stay repulsive from one event
    to the next.

    {b Bit-identity.} {!rebuild} folds the live routes in canonical order
    over a fresh engine, after which {!report} is the very report a
    from-scratch {!Routing.Evaluate.of_loads} computes on {!solution}.
    Appending a route in canonical order keeps that invariant without a
    rebuild; every other mutation breaks it until the next rebuild. *)

type t

val create :
  fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Routing.Solution.route list ->
  t
(** A session over the given routes, keyed [0, 1, ...] in list order and
    added to a fresh engine in that order, with an empty history. *)

val fault : t -> Noc.Fault.t
val loads : t -> Noc.Load.t

val report : t -> Routing.Evaluate.report
(** The engine's current report (bumps [feasibility_checks]). *)

val live : t -> int
val find : t -> int -> Routing.Solution.route option

val routes : t -> Routing.Solution.route list
(** The live routes in canonical order. *)

val solution : t -> Routing.Solution.t

val next_key : t -> int
(** One past the largest key ever used: the key {!append} takes. *)

val add : t -> int -> Routing.Solution.route -> unit
(** Route the communication under a free key.
    @raise Invalid_argument when the key is live. *)

val append : t -> Routing.Solution.route -> int
(** {!add} under {!next_key}, returned. *)

val remove : t -> int -> Routing.Solution.route option
(** Release the route under the key, if live. *)

val rebuild : t -> unit
(** The canonical rebuild on a fresh engine. *)

val overload_mask : t -> Routing.Evaluate.report -> bool array
(** Per link id: the report convicts the link. *)

val crosses : t -> bool array -> Routing.Solution.route -> bool
(** {!Routing.Solution.route_crosses} on the session's mesh. *)

(** {1 The ladder} *)

val keep : t -> Noc.Fault.t -> (int * Routing.Solution.route) list
(** Rung 1: switch to the fault, drop the routes crossing one of its
    dead links and rebuild the survivors. Returns the dropped routes, in
    canonical order. *)

val repair : t -> Traffic.Communication.t -> Routing.Solution.route option
(** Rung 2, and the candidate of every admission: the local route under
    the current loads; [None] when the fault disconnects the endpoints.
    Not applied. Bumps [detour_searches]. *)

val negotiate :
  t -> iterations:int -> (Routing.Solution.route -> bool) -> (int * int) option
(** Rungs 3 and 4: {!Pathfinder.refine} over the live routes the
    predicate selects, in canonical order, with at most [iterations]
    sweeps and the session's history; the rerouted routes replace theirs
    under the same keys. [Some (sweeps, rips)], or [None] (nothing run)
    when [iterations] is 0 or nothing is selected. *)

val shed : t -> Routing.Evaluate.report -> (int * Routing.Solution.route) list
(** Rung 5: starting from the given current report, remove the lightest
    live route crossing a convicted link until the report is feasible.
    Returns the removed routes, in removal order. *)

val readmit :
  t -> int -> Traffic.Communication.t -> Routing.Solution.route option
(** Speculative readmission under the (free) key: the {!repair} route,
    kept when the whole state stays feasible. *)

val reoptimize : t -> bool array -> int * bool
(** Give every live route crossing the mask, in canonical order, one
    {!repair} retry, kept only when the state stays feasible and its
    total power strictly drops. Returns the retries and whether one was
    kept. *)
