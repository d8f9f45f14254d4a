(** The virtual BEST heuristic: run every policy, keep the cheapest feasible
    solution — exactly how the paper's plots define BEST. *)

type outcome = {
  heuristic : Heuristic.t;
  solution : Solution.t;
  report : Evaluate.report;
}

val run_all :
  ?heuristics:Heuristic.t list ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome list
(** One outcome per heuristic (default: all six), in registry order. The
    fault scenario, when given, is passed to each heuristic and to the
    evaluation. *)

val best_of : outcome list -> outcome option
(** Feasible outcome of minimum total power, if any. *)

val route :
  ?heuristics:Heuristic.t list ->
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome option
(** [best_of (run_all ...)]. *)

val baseline :
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Noc.Mesh.t ->
  Traffic.Communication.t list ->
  outcome
(** The single-path baseline the engines of [Optim] start from or guard
    against: {!best_of} over {!run_all}, or, when every heuristic fails,
    the outcome of least capped penalized power (the first on ties). *)

val no_worse :
  ?fault:Noc.Fault.t ->
  Power.Model.t ->
  Solution.t ->
  Evaluate.report ->
  than:outcome ->
  bool
(** The never-worse guard: the candidate (with its report) is kept over
    [than] when it is feasible and [than] is not, or both are feasible
    and it draws no more total power, or both fail and its penalized
    power is no higher. *)
