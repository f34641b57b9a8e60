(* Shared pieces of the benchmark: sample buffers and quantiles, the
   per-window timed figures, the metric and report records every
   workload returns, set-up timing and runtime (GC) accounting. *)

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let now = Obs.Clock.now_ns
let ms_since t0 = Obs.Clock.span_ms ~since:t0 (now ())

(* ---------- samples ---------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let iter f t = for i = 0 to t.n - 1 do f t.a.(i) done
  let append ~into t = iter (add into) t

  let sum t =
    let s = ref 0. in
    iter (fun x -> s := !s +. x) t;
    !s

  (* Linear interpolation between order statistics (R's type 7, as
     numpy's default); 0 on an empty buffer, which only a layer the
     workload never calls produces. *)
  let quantile t q =
    if t.n = 0 then 0.
    else begin
      let b = Array.sub t.a 0 t.n in
      Array.sort Float.compare b;
      let h = fi (t.n - 1) *. q in
      let lo = truncate h in
      let hi = min (t.n - 1) (lo + 1) in
      b.(lo) +. ((h -. fi lo) *. (b.(hi) -. b.(lo)))
    end

  let geomean t =
    if t.n = 0 then 0.
    else begin
      let s = ref 0. in
      iter (fun x -> s := !s +. log x) t;
      exp (!s /. fi t.n)
    end
end

(* ---------- windows ---------- *)

(* The timed figures of a run, taken window by window (a pass over the
   pool, or a serving round) and averaged over the windows. The host
   this runs on is shared, and other load slows it in stretches of
   seconds to minutes, by up to about 1.7 times. A percentile over every
   request of a run that straddles two such speeds jumps between them as
   the share of each crosses a half; the mean of the windows'
   percentiles moves in proportion to the share. Every window counts, so
   every cost the program pays (a major GC slice, heap growth) counts
   wherever it falls. *)
module Windows = struct
  type t = {
    p50 : Samples.t;
    p90 : Samples.t;
    cold_p50 : Samples.t;
    mutable requests : int;
    mutable cold : int;
    mutable ms : float;
  }

  let create () =
    { p50 = Samples.create (); p90 = Samples.create (); cold_p50 = Samples.create (); requests = 0; cold = 0; ms = 0. }

  (* Close a window: the latencies (ms) of its measured requests, and of
     the cold ones among them. *)
  let add t ~lat ~cold =
    if Samples.length lat > 0 then begin
      Samples.add t.p50 (Samples.quantile lat 0.5);
      Samples.add t.p90 (Samples.quantile lat 0.9);
      t.requests <- t.requests + Samples.length lat;
      t.ms <- t.ms +. Samples.sum lat
    end;
    if Samples.length cold > 0 then begin
      Samples.add t.cold_p50 (Samples.quantile cold 0.5);
      t.cold <- t.cold + Samples.length cold
    end

  let length t = Samples.length t.p50
  let mean s = ratio (Samples.sum s) (fi (Samples.length s))

  (* The run's figures: each percentile is the mean of the windows' own;
     throughput is the measured requests over the time they took. *)
  let p50 t = mean t.p50
  let p90 t = mean t.p90
  let cold_p50 t = mean t.cold_p50
  let throughput t = ratio (fi t.requests) (t.ms /. 1000.)
end

(* ---------- metrics and reports ---------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type report = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** every end-to-end metric *)
  layers : metric list;  (** per-layer metrics; traced runs only *)
  inputs : (string * string) list;  (** the workload's inputs, for the record *)
  samples : (string * int) list;  (** sample count behind each percentile *)
  info : (string * string) list;  (** further figures, printed for the record *)
}

(* A failed output check: the request counts as failed, and the first
   few reasons are printed so a failure can be reproduced. *)
module Failures = struct
  type t = { mutable n : int }

  let create () = { n = 0 }

  let note t fmt =
    Printf.ksprintf
      (fun why ->
        t.n <- t.n + 1;
        if t.n <= 5 then Printf.eprintf "e2ebench: check failed: %s\n%!" why)
      fmt
end

(* ---------- runtime ---------- *)

(* Peak major heap of the whole process (all domains), in MiB: the
   largest the runtime reported at any of the points a run notes it
   (after set-up, after each pass or round, at the end). The runtime's
   own high-water mark can fall back when domains end, so the benchmark
   keeps the maximum itself. *)
let heap_peak_words = ref 0

let note_heap () =
  heap_peak_words := max !heap_peak_words (Gc.quick_stat ()).Gc.top_heap_words

let peak_heap_mb () =
  note_heap ();
  fi !heap_peak_words *. fi (Sys.word_size / 8) /. 1_048_576.

(* ---------- set-up ---------- *)

(* Set up [reps] times and keep the last result; the reported [setup_s]
   is the median, so one slow repetition does not move it. Before each
   repetition the previous one is dropped and the heap compacted, so
   every repetition starts from the same state. *)
let timed_setup ~reps f =
  let times = Samples.create () in
  let last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.compact ();
    let t0 = now () in
    let v = f () in
    Samples.add times (ms_since t0 /. 1000.);
    last := Some v
  done;
  note_heap ();
  (Samples.quantile times 0.5, Option.get !last)

(* GC work of the measured requests only: words the calling domain
   allocated on its minor heap, and major collections (a process-wide
   count) that completed while a request ran. *)
module Gc_meter = struct
  type t = { mutable minor_words : float; mutable majors : int; mutable requests : int }

  let create () = { minor_words = 0.; majors = 0; requests = 0 }

  let time t f =
    let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let v = f () in
    t.minor_words <- t.minor_words +. (Gc.minor_words () -. w0);
    t.majors <- t.majors + ((Gc.quick_stat ()).Gc.major_collections - m0);
    t.requests <- t.requests + 1;
    v

  let metrics t =
    [
      m "gc.minor_kw_per_req" "kword/req" (ratio (t.minor_words /. 1000.) (fi t.requests));
      m "gc.major_collections_per_kreq" "1/kreq" (ratio (fi t.majors *. 1000.) (fi t.requests));
    ]
end

(* Zipf(s) over ranks [0, n): rank r has weight 1/(r+1)^s. *)
module Zipf = struct
  type t = float array  (** cumulative probabilities *)

  let make ~n ~s =
    let w = Array.init n (fun r -> 1. /. (fi (r + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w

  let draw (cdf : t) rng =
    let u = Random.State.float rng 1. in
    let rec go lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length cdf - 1)
end

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
