(* In-memory span recorder for the traced run.

   Each span has a name, a start, an end, the span it ran inside and the
   event (served event, simulated solution, campaign trial) it belongs
   to; spans of one event share that id. Spans are recorded from the
   benchmark's own files around the calls into each layer, plus the
   program's existing [Routing.Metrics] span hook. Off, [with_] is one
   branch. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span. *)
  event : int;
  name : string;
  t0 : int64;
  mutable t1 : int64;
}

(* Where traced runs write their files, relative to the checkout. *)
let out_dir = Filename.concat "perfbench" "_out"

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let event = ref (-1)

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  event := -1

let set_event e = event := e

let start name =
  let s =
    {
      id = !next_id;
      parent = (match !stack with p :: _ -> p | [] -> -1);
      event = !event;
      name;
      t0 = Measure.now ();
      t1 = 0L;
    }
  in
  incr next_id;
  stack := s.id :: !stack;
  spans := s :: !spans;
  s

let finish s =
  s.t1 <- Measure.now ();
  match !stack with _ :: rest -> stack := rest | [] -> ()

let with_ name f =
  if not !on then f ()
  else
    let s = start name in
    Fun.protect ~finally:(fun () -> finish s) f

(* The program's own spans ("delta-table", "repair", "serve", ...) land
   in the same recorder, named after the layer that emits them. *)
let hook_name = function
  | "delta-table" -> "routing.delta_table"
  | "repair" -> "routing.repair"
  | "serve" -> "optim.online.serve"
  | "pathfinder" -> "optim.pathfinder"
  | "recover" -> "optim.recover"
  | other -> "program." ^ other

let install_hook () =
  Routing.Metrics.set_span_hook
    (Some
       (fun name ->
         let s = start (hook_name name) in
         fun () -> finish s))

let enable () =
  reset ();
  on := true;
  install_hook ()

let disable () =
  on := false;
  Routing.Metrics.set_span_hook None

let all () = List.rev !spans
let duration s = Measure.seconds_between s.t0 s.t1

(* Calls and total seconds of the spans with this name. *)
let total name =
  List.fold_left
    (fun (n, sec) s -> if s.name = name then (n + 1, sec +. duration s) else (n, sec))
    (0, 0.) !spans

(* The layer a span belongs to, by the first component of its name:
   heuristics live in the routing library, and every [optim] span the
   benchmark sees runs inside the online engine. *)
let layers = [ "traffic"; "routing"; "optim.online"; "sim"; "harness.runner" ]

let layer_of name =
  match String.index_opt name '.' with
  | None -> None
  | Some i -> (
      match String.sub name 0 i with
      | "traffic" -> Some "traffic"
      | "routing" | "heuristic" -> Some "routing"
      | "optim" -> Some "optim.online"
      | "sim" -> Some "sim"
      | "harness" -> Some "harness.runner"
      | _ -> None)

(* Self time per layer: each span's duration minus what its direct
   children cover. Returns the per-layer totals and the summed duration
   of root spans. *)
let self_times () =
  let all = all () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((try Hashtbl.find child s.parent with Not_found -> 0.) +. duration s))
    all;
  let acc = Hashtbl.create 16 in
  let roots = ref 0. in
  List.iter
    (fun s ->
      let self =
        duration s -. (try Hashtbl.find child s.id with Not_found -> 0.)
      in
      if s.parent < 0 then roots := !roots +. duration s;
      match layer_of s.name with
      | Some l ->
          Hashtbl.replace acc l
            ((try Hashtbl.find acc l with Not_found -> 0.) +. self)
      | None -> ())
    all;
  (List.map (fun l -> (l, try Hashtbl.find acc l with Not_found -> 0.)) layers, !roots)

(* Chrome trace-event JSON, one event per line; [args] carry the span
   id, its parent and its event id. Only the first [limit] spans are
   written, which keeps a long traced run's file small. *)
let write ?(limit = 100_000) path =
  let all = List.filteri (fun i _ -> i < limit) (all ()) in
  let base = match all with s :: _ -> s.t0 | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let oc = open_out path in
  output_string oc "[\n";
  let n = List.length all in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"event\":%d}}%s\n"
        s.name (us s.t0)
        (us s.t1 -. us s.t0)
        s.id s.parent s.event
        (if i < n - 1 then "," else ""))
    all;
  output_string oc "]\n";
  close_out oc;
  n
