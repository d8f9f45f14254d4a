(* Clock, sample statistics, GC deltas and the result record every
   workload fills in. *)

let now () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, seconds_between t0 (now ()))

(* Growable float buffer: one value per timed call of a pass. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let push s v =
    if s.len = Array.length s.data then begin
      let bigger = Array.make (2 * s.len) 0. in
      Array.blit s.data 0 bigger 0 s.len;
      s.data <- bigger
    end;
    s.data.(s.len) <- v;
    s.len <- s.len + 1

  let to_array s = Array.sub s.data 0 s.len
end

(* Nearest-rank quantile of a sorted array (0 when empty). *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0
              (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile a 0.5

(* Number of samples strictly beyond the [p] quantile: a percentile is
   only reported with at least ten of them. *)
let beyond sorted p =
  let q = quantile sorted p in
  Array.fold_left (fun n v -> if v > q then n + 1 else n) 0 sorted

let word_bytes = float_of_int (Sys.word_size / 8)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.

(* GC totals, diffed around a timed region. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
  }

(* What a run reports: the JSON result line plus the failed checks. *)
type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks_failed : string list;
  mutable metrics : (string * float * string) list;  (** Reversed. *)
}

let report () = { attempted = 0; failed = 0; checks_failed = []; metrics = [] }
let metric r name value unit = r.metrics <- (name, value, unit) :: r.metrics

(* A failed correctness check: printed at once, remembered for the
   verdict. *)
let check r ok what =
  if not ok then begin
    Printf.printf "CHECK FAILED: %s\n%!" what;
    r.checks_failed <- what :: r.checks_failed
  end

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (r.checks_failed = []) r.attempted r.failed);
  List.iteri
    (fun i (name, value, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
           (json_number value) unit))
    (List.rev r.metrics);
  Buffer.add_string b "}}";
  Buffer.contents b
