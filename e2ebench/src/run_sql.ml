(* [run_sql]: one client runs a seeded pool of distinct SQL texts,
   cycled, each all the way to its last result row: parse, optimize,
   extract, execute. Queries join 2 to 4 of the 12 relations of
   {!Sqlgen.catalog}; the mix is plain, ORDER BY, GROUP BY and
   DISTINCT. Execution is most of the work here. *)

open Util

let pool_size = 180
let sizes = [| 2; 3; 4 |]

(* The plan-quality set: a pool drawn from a fixed seed. *)
let quality_seed = 7_001

type item = { q : Sqlgen.query; expected : Checks.expected }

let request req parent it =
  let stmt = Spans.layer parent Layers.parse (fun () -> Sqlfront.parse req.Relmodel.Optimizer.catalog it.q.sql) in
  let r =
    Spans.layer parent Layers.optimize (fun () ->
        Relmodel.Optimizer.optimize req stmt.logical ~required:stmt.required)
  in
  let result =
    Option.map
      (fun node ->
        let phys = Spans.layer parent Layers.extract (fun () -> Relmodel.Optimizer.to_physical node) in
        Spans.layer parent Layers.execute (fun () -> Executor.run req.catalog phys))
      r.plan
  in
  (r, result)

let check it (_, result) =
  match result with
  | None -> Error (it.q.sql ^ ": no plan")
  | Some (tuples, schema, _) ->
    Result.map_error
      (fun why -> it.q.sql ^ ": " ^ why)
      (Checks.rows it.expected (tuples, schema))

let run ~seed ~seconds ~traced =
  let setup () =
    let catalog, tables = Sqlgen.catalog () in
    let pool = Sqlgen.pool ~seed ~tables ~sizes ~count:pool_size in
    let quality = Sqlgen.pool ~seed:quality_seed ~tables ~sizes ~count:pool_size in
    (Relmodel.Optimizer.request catalog, tables, pool, quality)
  in
  let setup_s, (req, tables, queries, quality) = timed_setup ~reps:5 setup in
  (* The reference rows, outside the timed region. *)
  let pool =
    Array.map (fun q -> { q; expected = Reference.eval req.catalog q }) queries
  in
  let vol = Layers.volcano () in
  let io = Executor.Io_stats.create () in
  let executed = ref 0 in
  let st =
    Loop.run ~seconds ~traced ~pool ~request:(request req) ~check:(fun _ -> check)
      ~on_traced:(fun _ (r, result) ->
        Layers.note_optimization vol r;
        Option.iter
          (fun (_, _, (s : Executor.Io_stats.t)) ->
            incr executed;
            io.page_reads <- io.page_reads + s.page_reads;
            io.page_writes <- io.page_writes + s.page_writes;
            io.tuples_produced <- io.tuples_produced + s.tuples_produced)
          result)
  in
  (* Plan quality, outside the timed loop: the optimum cost of every
     query of the fixed set, each plan checked for its scans and properties. *)
  let costs = Samples.create () in
  Array.iter
    (fun (q : Sqlgen.query) ->
      let stmt = Sqlfront.parse req.catalog q.sql in
      st.attempted <- st.attempted + 1;
      match (Relmodel.Optimizer.optimize req stmt.logical ~required:stmt.required).plan with
      | None -> Failures.note st.failures "%s: no plan" q.sql
      | Some node -> (
        match
          Checks.plan ~catalog:req.catalog ~relations:(Array.to_list q.rels)
            ~required:stmt.required (Relmodel.Optimizer.to_physical node)
        with
        | Ok () -> Samples.add costs (Relalg.Cost.total node.cost)
        | Error why -> Failures.note st.failures "%s: %s" q.sql why))
    quality;
  let sp = st.spans in
  let request_ms = Spans.total_ms sp "request" in
  let per x = ratio (fi x) (fi !executed) in
  let layers =
    Layers.volcano_metrics vol ~optimize_ms:(Spans.total_ms sp Layers.optimize)
    @ [
        m "relmodel.optimize_ms_p50" "ms" (Spans.p50 sp Layers.optimize);
        m "relmodel.optimize_share" "ratio" (ratio (Spans.total_ms sp Layers.optimize) request_ms);
        m "relmodel.extract_us_p50" "us" (1000. *. Spans.p50 sp Layers.extract);
        m "executor.run_ms_p50" "ms" (Spans.p50 sp Layers.execute);
        m "executor.share" "ratio" (ratio (Spans.total_ms sp Layers.execute) request_ms);
        m "executor.page_reads" "pages/req" (per io.page_reads);
        m "executor.page_writes" "pages/req" (per io.page_writes);
        m "executor.pages_per_query" "pages/req" (per (io.page_reads + io.page_writes));
        m "executor.tuples" "tuples/req" (per io.tuples_produced);
        m "sqlfront.parse_us_p50" "us" (1000. *. Spans.p50 sp Layers.parse);
        m "sqlfront.parse_share" "ratio" (ratio (Spans.total_ms sp Layers.parse) request_ms);
      ]
    @ Gc_meter.metrics st.gc
    @ Loop.overhead st
  in
  let rows = Sqlgen.table_rows req.catalog tables in
  let kinds = Hashtbl.create 4 in
  Array.iter
    (fun (q : Sqlgen.query) ->
      let k = Sqlgen.kind_name q.kind in
      Hashtbl.replace kinds k (1 + Option.value (Hashtbl.find_opt kinds k) ~default:0))
    queries;
  ( {
      attempted = st.attempted;
      failed = st.failures.n;
      e2e = Loop.e2e st ~setup_s ~plan_cost_geomean:(Samples.geomean costs);
      layers;
      inputs =
        [
          ("tables", string_of_int (Array.length tables));
          ( "table_rows",
            Printf.sprintf "%d-%d (catalog seed %d)" (Array.fold_left min max_int rows)
              (Array.fold_left max 0 rows) Sqlgen.catalog_seed );
          ("relations_per_query", "2-4");
          ( "query_mix",
            String.concat ", "
              (List.map (fun k -> Printf.sprintf "%s %d" k (Option.value (Hashtbl.find_opt kinds k) ~default:0))
                 [ "plain"; "order_by"; "group_by"; "distinct" ]) );
          ("pool_size", string_of_int pool_size);
          ("quality_set", Printf.sprintf "%d queries, seed %d" pool_size quality_seed);
          ("passes", string_of_int st.passes);
        ];
      samples = Loop.samples st ~pool:(Array.length pool) ~traced @ [ ("plan_cost", Samples.length costs) ];
      info = [];
    },
    st.window,
    sp )
