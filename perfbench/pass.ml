(* What a workload gives the main program ([perfbench.ml]).

   A workload generates a fixed instance set from its seed ([setup]) and
   then serves, simulates or runs that whole set once per [pass]. The
   main program repeats passes until the run's time is up, so the timed work
   per run grows with [--seconds] while every deterministic output
   (power, ratios, exact counts) is that of one pass and does not. *)

type t = {
  failed : int;  (** Failed operations among the pass's timed calls. *)
  power_mw : float;  (** Mean power of the routings the pass produced. *)
  success_ratio : float;  (** Share of the pass's requests that succeeded. *)
  exact : (string * float) list;
      (** Counts that must repeat exactly on every pass of a seed. *)
  layer : (string * float) list;
      (** Other per-layer values of the pass (ratios, words, seconds). *)
  digest : string;
      (** Digest of every output of the pass; a repeat pass must give the
          same bytes. *)
}

type workload = {
  name : string;
  setup :
    int -> traced:bool -> (seconds:float -> units:float -> unit) -> Measure.report -> t;
      (** [setup seed] builds the instance set (the timed set-up) and
          returns the pass function. A pass records every timed call into
          the library's entry point, in a fixed order, with the
          throughput units it produced (events, simulated cycles or
          trials), and counts failed checks in the report. *)
}
