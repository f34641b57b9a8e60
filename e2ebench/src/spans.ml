(* Spans recorded by the benchmark's own code around each call into a
   layer's public function. Every request gets a root span ("request")
   and one child span per layer call; spans of one request share the
   root as parent. Calls outside a request (the catalog's statistics
   refresh between serving rounds) are roots of their own.

   Spans are kept in an [Obs.Trace] collector and folded into per-name
   aggregates every pass or round, after which a fresh collector
   starts, so memory stays bounded; the Chrome trace written at the end
   holds the last window. *)

open Util

type agg = {
  durations : Samples.t;  (** span durations, ms *)
  mutable self_ms : float;  (** durations minus the time child spans cover *)
}

type t = {
  mutable coll : Obs.Trace.t;
  by_name : (string, agg) Hashtbl.t;
      (** keyed by span name, and by ["name/outcome"] where an outcome
          was recorded *)
}

let create () = { coll = Obs.Trace.create (); by_name = Hashtbl.create 16 }

(* A writer for one domain. Register it after the last {!rotate} and
   use it from that domain only. Span ids count per writer, so keep one
   writer per track between rotations. *)
let buf t ~track = Obs.Trace.buf t.coll ~track

let agg t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
    let a = { durations = Samples.create (); self_ms = 0. } in
    Hashtbl.replace t.by_name name a;
    a

(* [request b f]: run [f] inside a root span, passing it the parent for
   its layer spans. Untraced ([b = None]) it is a plain call. *)
let request b f =
  match b with
  | None -> f None
  | Some b ->
    let root = Obs.Trace.open_span b ~cat:"request" "request" in
    let v = f (Some (b, root)) in
    Obs.Trace.close root;
    v

(* [layer parent name f]: time the layer call [f] as a child span.
   [outcome_of] tags the span from the call's result. *)
let layer ?outcome_of parent name f =
  match parent with
  | None -> f ()
  | Some (b, root) ->
    let s = Obs.Trace.open_span b ~parent:root ~cat:"layer" name in
    let v = f () in
    let outcome = Option.map (fun g -> g v) outcome_of in
    Obs.Trace.close ?outcome s;
    v

(* A layer call outside any request. *)
let standalone b name f =
  match b with
  | None -> f ()
  | Some b ->
    let s = Obs.Trace.open_span b ~cat:"layer" name in
    let v = f () in
    Obs.Trace.close s;
    v

let dur_ms (s : Obs.Trace.span) = Obs.Clock.span_ms ~since:s.sp_start s.sp_end

(* Fold the collector's spans into the aggregates and start a fresh
   collector. Call only when no writer is active. *)
let rotate t =
  let spans = Obs.Trace.spans t.coll in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.sp_parent <> 0 then begin
        let c = Option.value (Hashtbl.find_opt covered s.sp_parent) ~default:0. in
        Hashtbl.replace covered s.sp_parent (c +. dur_ms s)
      end)
    spans;
  List.iter
    (fun (s : Obs.Trace.span) ->
      let d = dur_ms s in
      let self = d -. Option.value (Hashtbl.find_opt covered s.sp_id) ~default:0. in
      let a = agg t s.sp_name in
      Samples.add a.durations d;
      a.self_ms <- a.self_ms +. self;
      if s.sp_outcome <> "" then Samples.add (agg t (s.sp_name ^ "/" ^ s.sp_outcome)).durations d)
    spans;
  let last = t.coll in
  t.coll <- Obs.Trace.create ();
  last

let durations t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a.durations
  | None -> Samples.create ()

let total_ms t name = Samples.sum (durations t name)
let p50 t name = Samples.quantile (durations t name) 0.5

(* Each span name's count, total and self time, and its share of all
   self time: where a request's time goes, layer by layer. *)
let print_self_table t =
  let rows =
    Hashtbl.fold
      (fun name a acc -> if String.contains name '/' then acc else (name, a) :: acc)
      t.by_name []
  in
  let all_self = List.fold_left (fun s (_, a) -> s +. a.self_ms) 0. rows in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.self_ms a.self_ms) rows in
  Printf.printf "%-32s %10s %12s %12s %7s\n" "span" "count" "total_ms" "self_ms" "self%";
  List.iter
    (fun (name, a) ->
      Printf.printf "%-32s %10d %12.3f %12.3f %6.1f%%\n" name (Samples.length a.durations)
        (Samples.sum a.durations) a.self_ms
        (100. *. ratio a.self_ms all_self))
    rows
