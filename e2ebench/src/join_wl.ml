(* The join workloads: the paper's select–join queries (§4.2,
   [Workload.generate]) optimized and extracted, never executed. Each
   request optimizes one query on a fresh memo, as the paper does, with
   [restore_columns = false] so the bare join plan is judged.

   [join_sparse] draws chain, star, snowflake and cycle queries of 7 and
   8 relations: exploration (transformation firings, memo inserts) is
   most of the work. [join_dense] draws cliques of 5 and 6 relations and
   7-relation grids: goal optimization (implementation moves, input
   goals, pruning) is most of the work. *)

open Util

type cell = { shape : Workload.shape; n : int; count : int }

let cell shape n count = { shape; n; count }

(* Three in four sparse queries have 7 relations and one in four has 8;
   seven in ten dense queries are 5-cliques. The proportions keep the
   median request inside one group, where the latency distribution is
   dense, and the 90th percentile inside the other. The suites are
   small so that a run makes five or more passes over them. *)
let sparse =
  let open Workload in
  [ cell Chain 7 3; cell Star 7 3; cell Snowflake 7 3; cell Cycle 7 3;
    cell Chain 8 1; cell Star 8 1; cell Snowflake 8 1; cell Cycle 8 1 ]

let dense = Workload.[ cell Clique 5 12; cell Clique 6 3; cell Grid 7 2 ]

type item = { q : Workload.query; req : Relmodel.Optimizer.request; label : string }

(* The optimizer reads a catalog's statistics, never its rows, so the
   pool keeps each generated catalog without its rows: forty catalogs
   then take little memory, and the heap holds what optimization
   allocates. *)
let without_rows catalog =
  let c = Catalog.create () in
  List.iter
    (fun (t : Catalog.table) ->
      ignore
        (Catalog.add c ~name:t.name ~schema:t.schema ~stored_order:t.stored_order
           ~stored_partitioning:t.stored_partitioning [||]);
      Catalog.update_stats c ~table:t.name ~stats:t.stats ();
      List.iter (Catalog.add_index c ~table:t.name) t.indexes)
    (Catalog.tables catalog);
  c

let item (shape, n, seed) =
  let q = Workload.generate (Workload.spec ~shape ~n_relations:n ~seed ()) in
  let q = { q with catalog = without_rows q.catalog } in
  {
    q;
    req = { (Relmodel.Optimizer.request q.catalog) with restore_columns = false };
    label = Printf.sprintf "%s-%d/seed %d" (Workload.shape_name shape) n seed;
  }

(* The pool is a fixed suite, as in the paper's experiments (a set of
   queries per complexity level): query [i] of the [c]-th cell is drawn
   from generator seed [1000 * c + i], whatever the run's seed; the run's
   seed orders the pool. The cost of a search varies a great deal
   between queries of one shape and size (one 8-relation query in
   twenty needs ten times the tasks), so pools drawn per seed moved
   throughput and the 90th percentile by 30-40% from seed to seed. *)
let inputs ~seed cells =
  let specs =
    List.concat
      (List.mapi
         (fun ci c -> List.init c.count (fun i -> (c.shape, c.n, (1000 * (ci + 1)) + i)))
         cells)
  in
  shuffle (Random.State.make [| seed; 0x701e |]) (Array.of_list (List.map item specs))

let required = Relalg.Phys_prop.any

(* One request: optimize, then extract the plan for execution. *)
let request parent it =
  let r =
    Spans.layer parent Layers.optimize (fun () ->
        Relmodel.Optimizer.optimize it.req it.q.logical ~required)
  in
  let phys =
    Option.map
      (fun node -> Spans.layer parent Layers.extract (fun () -> Relmodel.Optimizer.to_physical node))
      r.plan
  in
  (r, phys)

let check it ((r : Relmodel.Optimizer.result), phys) =
  match r.plan, phys with
  | Some node, Some phys when r.complete ->
    Result.map_error
      (fun why -> it.label ^ ": " ^ why)
      (Checks.plan ~catalog:it.q.catalog ~relations:it.q.relations ~required
         ~recost:(it.req.params, Relalg.Cost.total node.cost)
         phys)
  | _ -> Error (it.label ^ ": no complete plan")

let run ~cells ~seed ~seconds ~traced =
  let setup_s, pool = timed_setup ~reps:5 (fun () -> inputs ~seed cells) in
  (* Plan quality: the geometric mean cost of the suite's plans, which
     repeats exactly from run to run. *)
  let costs = Array.make (Array.length pool) None in
  let vol = Layers.volcano () in
  let st =
    Loop.run ~seconds ~traced ~pool ~request
      ~check:(fun j it ((r : Relmodel.Optimizer.result), phys) ->
        Option.iter
          (fun (n : Relmodel.Optimizer.plan_node) -> costs.(j) <- Some (Relalg.Cost.total n.cost))
          r.plan;
        check it (r, phys))
      ~on_traced:(fun _ (r, _) -> Layers.note_optimization vol r)
  in
  let found = Samples.create () in
  Array.iter (Option.iter (Samples.add found)) costs;
  let sp = st.spans in
  let layers =
    Layers.volcano_metrics vol ~optimize_ms:(Spans.total_ms sp Layers.optimize)
    @ [
        m "relmodel.optimize_ms_p50" "ms" (Spans.p50 sp Layers.optimize);
        m "relmodel.optimize_share" "ratio"
          (ratio (Spans.total_ms sp Layers.optimize) (Spans.total_ms sp "request"));
        m "relmodel.extract_us_p50" "us" (1000. *. Spans.p50 sp Layers.extract);
      ]
    @ Gc_meter.metrics st.gc
    @ Loop.overhead st
  in
  let describe cs =
    String.concat ", "
      (List.map (fun c -> Printf.sprintf "%d x %s-%d" c.count (Workload.shape_name c.shape) c.n) cs)
  in
  ( {
      attempted = st.attempted;
      failed = st.failures.n;
      e2e = Loop.e2e st ~setup_s ~plan_cost_geomean:(Samples.geomean found);
      layers;
      inputs =
        [
          ("cells", describe cells);
          ("pool_size", string_of_int (Array.length pool));
          ("quality_set", "the pool");
          ("table_rows", "1200-7200 (paper, uniform per relation)");
          ("required", "any");
          ("passes", string_of_int st.passes);
        ];
      samples = Loop.samples st ~pool:(Array.length pool) ~traced @ [ ("plan_cost", Samples.length found) ];
      info = [];
    },
    st.window,
    sp )
