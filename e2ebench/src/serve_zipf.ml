(* [serve_zipf]: one client with its own [Plansrv.worker] serves a
   Zipf(1.1)-skewed stream over a pool of 160 distinct SQL queries of 3
   to 5 relations. A request is SQL text answered with a plan: parse,
   then serve (fingerprint, cache probe, optimize on a miss). The client
   runs a closed loop of [round_requests] per round; between rounds,
   with no request in flight, [Catalog.update_stats] refreshes one
   table, taking tables in a seeded order, which invalidates the cached
   plans that read it. Concurrent serving is not measured: the client
   is the main domain, and no other domain runs.

   The outputs are checked after each round, outside the timed region:
   every served plan must cost what a fresh sequential optimization of
   its canonical form costs under the statistics current when it was
   served, and must pass the plan checks. One seeded reply per round is
   also executed after the last round and its rows compared with the
   reference evaluator's. *)

open Util

let pool_size = 160
let sizes = [| 3; 4; 5 |]
let zipf_s = 1.1
let round_requests = 8_000
let quality_seed = 7_002

(* What the checks need of a reply, and no more: a round's replies are
   held until it ends. *)
type served = {
  qi : int;  (** pool index *)
  outcome : Plansrv.outcome;
  plan : Relmodel.Optimizer.plan_node option;
  ms : float;
}

type env = {
  catalog : Catalog.t;
  tables : string array;
  queries : Sqlgen.query array;
  svc : Plansrv.t;
  worker : Plansrv.worker;
}

let setup ~seed () =
  let catalog, tables = Sqlgen.catalog () in
  let queries = Sqlgen.pool ~seed ~tables ~sizes ~count:pool_size in
  let svc = Plansrv.create (Plansrv.config ~capacity:1024 (Relmodel.Optimizer.request catalog)) in
  let worker = Plansrv.worker svc in
  (* Warm the cache: every pool query once, before timing starts. *)
  Array.iter
    (fun (q : Sqlgen.query) ->
      let stmt = Sqlfront.parse catalog q.sql in
      ignore (Plansrv.serve_one svc worker stmt.logical ~required:stmt.required))
    queries;
  { catalog; tables; queries; svc; worker }

let outcome_name = function
  | Plansrv.Hit -> "hit"
  | Plansrv.Miss -> "miss"
  | Plansrv.Invalidated -> "invalidated"

let request env parent qi =
  let stmt =
    Spans.layer parent Layers.parse (fun () -> Sqlfront.parse env.catalog env.queries.(qi).sql)
  in
  let resp =
    Spans.layer parent Layers.serve_one
      ~outcome_of:(fun (r : Plansrv.response) -> outcome_name r.outcome)
      (fun () -> Plansrv.serve_one env.svc env.worker stmt.logical ~required:stmt.required)
  in
  (stmt, resp)

(* One round: [round_requests] requests drawn from the client's Zipf
   stream, each timed alone. Zipf rank [r] is pool query [r]: the
   pool's skeletons run in a fixed cycle, so every seed puts the same
   kinds of query at the same popularity. Returns the replies and the
   words allocated on the minor heap. *)
let round env ~cdf ~rng ~buf =
  let w0 = Gc.minor_words () in
  let serve _ =
    let qi = Zipf.draw cdf rng in
    let t0 = now () in
    let stmt, resp = Spans.request buf (fun parent -> request env parent qi) in
    let ms = ms_since t0 in
    (* The fingerprint is computed inside serve_one, where the benchmark
       cannot wrap it; traced rounds time the same public call on the
       same input right after the request, as a span of its own. *)
    if Option.is_some buf then
      ignore
        (Spans.standalone buf Layers.fingerprint (fun () ->
             Plansrv.Fingerprint.of_query stmt.logical ~required:stmt.required));
    { qi; outcome = resp.outcome; plan = resp.plan; ms }
  in
  let served = Array.init round_requests serve in
  (served, Gc.minor_words () -. w0)

(* The reference optimum of a query under the current statistics,
   keyed by the content of its tables' statistics: a refresh that
   leaves them unchanged reuses the reference. *)
let make_reference env ~statement =
  let digests = Hashtbl.create 16 in
  let digest t =
    match Hashtbl.find_opt digests t with
    | Some d -> d
    | None ->
      let d = Digest.string (Marshal.to_string (Catalog.find env.catalog t).Catalog.stats []) in
      Hashtbl.replace digests t d;
      d
  in
  let refs = Hashtbl.create 256 in
  let req = Plansrv.service_request env.svc in
  let refresh t = Hashtbl.remove digests t in
  let optimum s =
    let q = env.queries.(s.qi) in
    let key = String.concat "" (string_of_int s.qi :: List.map digest (Array.to_list q.rels)) in
    match Hashtbl.find_opt refs key with
    | Some c -> c
    | None ->
      let stmt : Sqlfront.statement = statement s.qi in
      let _, canonical = Plansrv.Fingerprint.of_query stmt.logical ~required:stmt.required in
      let c =
        Option.map
          (fun (n : Relmodel.Optimizer.plan_node) -> Relalg.Cost.total n.cost)
          (Relmodel.Optimizer.optimize req canonical ~required:stmt.required).plan
      in
      Hashtbl.replace refs key c;
      c
  in
  (refresh, optimum)

let run ~seed ~seconds ~traced =
  let setup_s, env = timed_setup ~reps:5 (setup ~seed) in
  let req = Plansrv.service_request env.svc in
  let cdf = Zipf.make ~n:pool_size ~s:zipf_s in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let table_order = shuffle (Random.State.make [| seed; 0x7ab1e |]) env.tables in
  let sample_rng = Random.State.make [| seed; 0x5a3b1e |] in
  let statements =
    Array.map (fun (q : Sqlgen.query) -> lazy (Sqlfront.parse env.catalog q.sql)) env.queries
  in
  let statement qi = Lazy.force statements.(qi) in
  let refresh, optimum = make_reference env ~statement in
  let checked = Array.make pool_size None in
  let failures = Failures.create () in
  (* The measured untraced rounds, and the mean latency of each measured
     round, by kind. *)
  let windows = Windows.create () in
  let r_mean_traced = Samples.create () and r_mean_untraced = Samples.create () in
  let gc = Gc_meter.create () in
  let spans = Spans.create () in
  let window = ref None in
  let samples_to_execute = ref [] in
  let m0 = Plansrv.metrics env.svc in
  let hits = ref 0 and requests = ref 0 and rounds = ref 0 in
  let wall_ms = ref 0. and cold_ms = ref 0. in
  let check (s : served) =
    match s.plan with
    | None -> Error "no plan served"
    | Some node ->
      let reported = Relalg.Cost.total node.cost in
      let plan_ok =
        (* A hit hands back the very plan checked before; check it again
           only when the served plan changed. *)
        match checked.(s.qi) with
        | Some n when n == node -> Ok ()
        | _ ->
          let q = env.queries.(s.qi) in
          let r =
            Checks.plan ~catalog:env.catalog ~relations:(Array.to_list q.rels)
              ~required:(statement s.qi).required (Relmodel.Optimizer.to_physical node)
          in
          if Result.is_ok r then checked.(s.qi) <- Some node;
          r
      in
      Result.bind plan_ok (fun () ->
          match optimum s with
          | Some reference -> Checks.optimal ~reference ~reported
          | None -> Error "a fresh optimization finds no plan")
  in
  (* Round 0 warms up and is not measured; traced runs trace the odd
     rounds and measure an even number of rounds. *)
  let more () =
    !wall_ms < seconds *. 1000. || !rounds < 2 || (traced && (!rounds < 3 || !rounds mod 2 = 0))
  in
  while more () do
    let measured = !rounds > 0 in
    let traced_round = traced && !rounds mod 2 = 1 in
    let buf = if traced_round then Some (Spans.buf spans ~track:0) else None in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now () in
    let served, words = round env ~cdf ~rng ~buf in
    wall_ms := !wall_ms +. ms_since t0;
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
    incr rounds;
    note_heap ();
    (* Outside the timed region from here on. *)
    if measured && not traced_round then begin
      gc.minor_words <- gc.minor_words +. words;
      gc.majors <- gc.majors + majors;
      gc.requests <- gc.requests + Array.length served
    end;
    let round_ms = ref 0. in
    let w_lat = Samples.create () and w_cold = Samples.create () in
    Array.iter
      (fun s ->
        incr requests;
        round_ms := !round_ms +. s.ms;
        (match s.outcome with
         | Plansrv.Hit -> incr hits
         | Plansrv.Miss | Plansrv.Invalidated ->
           cold_ms := !cold_ms +. s.ms;
           if measured && not traced_round then Samples.add w_cold s.ms);
        if measured && not traced_round then Samples.add w_lat s.ms;
        match check s with
        | Ok () -> ()
        | Error why -> Failures.note failures "%s: %s" env.queries.(s.qi).sql why)
      served;
    Windows.add windows ~lat:w_lat ~cold:w_cold;
    if measured then
      Samples.add
        (if traced_round then r_mean_traced else r_mean_untraced)
        (!round_ms /. fi (Array.length served));
    (* One seeded reply per round is executed after the run. *)
    samples_to_execute := served.(Random.State.int sample_rng (Array.length served)) :: !samples_to_execute;
    (* The write between rounds. *)
    let t = table_order.(!rounds mod Array.length table_order) in
    Spans.standalone buf Layers.update_stats (fun () -> Catalog.update_stats env.catalog ~table:t ());
    refresh t;
    if traced_round then window := Some (Spans.rotate spans)
  done;
  let peak_heap_mb = peak_heap_mb () in
  let m1 = Plansrv.metrics env.svc in
  (* The sampled replies' rows, against the reference evaluator's. The
     data never changes, only statistics, so the rows stay valid. *)
  List.iter
    (fun (s : served) ->
      match s.plan with
      | None -> ()
      | Some node -> (
        let exp = Reference.eval env.catalog env.queries.(s.qi) in
        let tuples, schema, _ = Executor.run env.catalog (Relmodel.Optimizer.to_physical node) in
        match Checks.rows exp (tuples, schema) with
        | Ok () -> ()
        | Error why -> Failures.note failures "%s: %s" env.queries.(s.qi).sql why))
    !samples_to_execute;
  (* Plan quality: the optimum cost of every query of a fixed pool. *)
  let costs = Samples.create () in
  Array.iter
    (fun (q : Sqlgen.query) ->
      let stmt = Sqlfront.parse env.catalog q.sql in
      match (Relmodel.Optimizer.optimize req stmt.logical ~required:stmt.required).plan with
      | Some node -> Samples.add costs (Relalg.Cost.total node.cost)
      | None -> Failures.note failures "%s: no plan" q.sql)
    (Sqlgen.pool ~seed:quality_seed ~tables:env.tables ~sizes ~count:pool_size);
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "latency_ms_p50" "ms" (Windows.p50 windows);
      m "latency_ms_p90" "ms" (Windows.p90 windows);
      m "throughput_qps" "req/s" (Windows.throughput windows);
      m "cold_latency_ms_p50" "ms" (Windows.cold_p50 windows);
      m "plan_cost_geomean" "cost" (Samples.geomean costs);
      m "peak_heap_mb" "MiB" peak_heap_mb;
    ]
  in
  let search = Volcano.Search_stats.diff ~since:m0.search m1.search in
  let n_cold = m1.misses + m1.invalidations - m0.misses - m0.invalidations in
  let vol = { Layers.stats = search; opts = n_cold; memo_mexprs = 0 } in
  let miss_ms = Samples.create () in
  Samples.append ~into:miss_ms (Spans.durations spans (Layers.serve_one ^ "/miss"));
  Samples.append ~into:miss_ms (Spans.durations spans (Layers.serve_one ^ "/invalidated"));
  let request_ms = Spans.total_ms spans "request" in
  let median s = Samples.quantile s 0.5 in
  let layers =
    Layers.volcano_metrics vol ~optimize_ms:!cold_ms
    @ [
        m "sqlfront.parse_us_p50" "us" (1000. *. Spans.p50 spans Layers.parse);
        m "sqlfront.parse_share" "ratio" (ratio (Spans.total_ms spans Layers.parse) request_ms);
        m "plansrv.fingerprint_us_p50" "us" (1000. *. Spans.p50 spans Layers.fingerprint);
        m "plansrv.hit_us_p50" "us" (1000. *. Spans.p50 spans (Layers.serve_one ^ "/hit"));
        m "plansrv.hit_rate" "ratio" (ratio (fi !hits) (fi !requests));
        m "plansrv.lockfree_hit_frac" "ratio"
          (ratio (fi (m1.lockfree_hits - m0.lockfree_hits)) (fi (m1.hits - m0.hits)));
        m "plansrv.miss_ms_p50" "ms" (Samples.quantile miss_ms 0.5);
        m "plansrv.invalidations_per_round" "count/round"
          (ratio (fi (m1.invalidations - m0.invalidations)) (fi !rounds));
        m "catalog.update_stats_ms" "ms" (Spans.p50 spans Layers.update_stats);
      ]
    @ Gc_meter.metrics gc
    @ Layers.overhead ~traced_ms:(median r_mean_traced) ~untraced_ms:(median r_mean_untraced)
  in
  let rows = Sqlgen.table_rows env.catalog env.tables in
  ( {
      attempted = !requests;
      failed = failures.n;
      e2e;
      layers;
      inputs =
        [
          ("clients", "1");
          ("tables", string_of_int (Array.length env.tables));
          ( "table_rows",
            Printf.sprintf "%d-%d (catalog seed %d)" (Array.fold_left min max_int rows)
              (Array.fold_left max 0 rows) Sqlgen.catalog_seed );
          ("relations_per_query", "3-5");
          ("query_mix", "plain 2/5, order_by 1/5, group_by 1/5, distinct 1/5");
          ("pool_size", string_of_int pool_size);
          ("zipf_s", Printf.sprintf "%g" zipf_s);
          ("requests_per_round", string_of_int round_requests);
          ("quality_set", Printf.sprintf "%d queries, seed %d" pool_size quality_seed);
        ];
      samples =
        [
          ("rounds", !rounds);
          ("windows", Windows.length windows);
          ("latency", windows.requests);
          ("cold_latency", windows.cold);
          ("rows_checked", List.length !samples_to_execute);
          ("plan_cost", Samples.length costs);
        ];
      info = [ ("hit_rate", Printf.sprintf "%.6f" (ratio (fi !hits) (fi !requests))) ];
    },
    !window,
    spans )
