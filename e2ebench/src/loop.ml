(* One client in a closed loop: it sends the pool's requests in order,
   waits for each reply, and cycles the pool until [seconds] of request
   time have passed, always finishing the pass it is in so every pool
   item runs equally often. Each reply is checked after its request's
   time is taken.

   The first pass warms up (heap growth, first-touch costs) and is not
   measured. Each measured pass is a window ([Util.Windows]): its
   percentiles are over its requests, and its throughput is its requests
   over the time they took. Each pass runs every item once, so every
   item weighs the same in every window.

   Traced runs alternate traced and untraced requests, so that over each
   pair of measured passes every item runs once each way, and measure an
   even number of passes. *)

open Util

type stats = {
  lat : Samples.t;  (** measured untraced requests, ms *)
  windows : Windows.t;  (** the measured passes' figures *)
  lat_traced : Samples.t;  (** measured traced requests, ms *)
  gc : Gc_meter.t;  (** untraced requests of a traced run *)
  spans : Spans.t;
  mutable window : Obs.Trace.t option;  (** the last pass's spans *)
  mutable attempted : int;
  failures : Failures.t;
  mutable passes : int;  (** the warm-up pass included *)
}

let run ~seconds ~traced ~pool ~request ~check ~on_traced =
  let st =
    {
      lat = Samples.create ();
      windows = Windows.create ();
      lat_traced = Samples.create ();
      gc = Gc_meter.create ();
      spans = Spans.create ();
      window = None;
      attempted = 0;
      failures = Failures.create ();
      passes = 0;
    }
  in
  let elapsed_ms = ref 0. in
  let more () =
    !elapsed_ms < seconds *. 1000.
    || st.passes < 2
    || (traced && (st.passes < 3 || st.passes mod 2 = 0))
  in
  while more () do
    let measured = st.passes > 0 in
    let b = if traced then Some (Spans.buf st.spans ~track:0) else None in
    let pass = Samples.create () in
    Array.iteri
      (fun j item ->
        let trace_this = traced && (j + st.passes) mod 2 = 0 in
        let t0 = now () in
        let reply =
          if trace_this then Spans.request b (fun parent -> request parent item)
          else if traced && measured then Gc_meter.time st.gc (fun () -> request None item)
          else request None item
        in
        let ms = ms_since t0 in
        elapsed_ms := !elapsed_ms +. ms;
        if trace_this then on_traced item reply;
        if measured then
          if trace_this then Samples.add st.lat_traced ms
          else begin
            Samples.add st.lat ms;
            Samples.add pass ms
          end;
        st.attempted <- st.attempted + 1;
        match check j item reply with
        | Ok () -> ()
        | Error why -> Failures.note st.failures "%s" why)
      pool;
    Windows.add st.windows ~lat:pass ~cold:(Samples.create ());
    note_heap ();
    if traced then st.window <- Some (Spans.rotate st.spans);
    st.passes <- st.passes + 1
  done;
  st

(* The end-to-end figures of a single-client run, where every request
   is cold (optimized from scratch). *)
let e2e st ~setup_s ~plan_cost_geomean =
  let w = st.windows in
  [
    m "setup_s" "s" setup_s;
    m "latency_ms_p50" "ms" (Windows.p50 w);
    m "latency_ms_p90" "ms" (Windows.p90 w);
    m "throughput_qps" "req/s" (Windows.throughput w);
    m "cold_latency_ms_p50" "ms" (Windows.p50 w);
    m "plan_cost_geomean" "cost" plan_cost_geomean;
    m "peak_heap_mb" "MiB" (peak_heap_mb ());
  ]

let samples st ~pool ~traced =
  [
    ("pool_items", pool);
    ((if traced then "measured_passes_each_way" else "measured_passes"),
     if traced then (st.passes - 1) / 2 else st.passes - 1);
    ("latency", Samples.length st.lat);
    ("windows", Windows.length st.windows);
  ]

(* The mean of each kind: both cover every item the same number of
   times. *)
let overhead st =
  let mean s = Samples.sum s /. fi (Samples.length s) in
  Layers.overhead ~traced_ms:(mean st.lat_traced) ~untraced_ms:(mean st.lat)
