(* Benchmark harness regenerating the paper's evaluation (Figure 4) and
   the ablations A1-A10 of DESIGN.md.

     dune exec bench/main.exe            -- every experiment
     dune exec bench/main.exe -- f4      -- just Figure 4
     dune exec bench/main.exe -- a1..a10 -- one ablation
     dune exec bench/main.exe -- plansrv -- plan-cache service (BENCH_plansrv.json)
     dune exec bench/main.exe -- pruning -- guided-pruning ablation (BENCH_pruning.json)
     dune exec bench/main.exe -- pruning smoke -- CI mode: small sizes, nonzero exit on failure
     dune exec bench/main.exe -- obs     -- observability overhead (BENCH_obs.json)
     dune exec bench/main.exe -- obs smoke -- CI mode: nonzero exit on divergence or parity break
     dune exec bench/main.exe -- mqo     -- multi-query optimization (BENCH_mqo.json)
     dune exec bench/main.exe -- mqo smoke -- CI mode: nonzero exit if sharing-off diverges
                                              or a materialization raises the batch cost
     dune exec bench/main.exe -- feedback -- runtime cardinality feedback (BENCH_feedback.json)
     dune exec bench/main.exe -- feedback smoke -- CI mode: nonzero exit if a skewed arm
                                              fails to recover or feedback perturbs results
     dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- full    -- paper-sized query counts everywhere

   Absolute times are machine-dependent (the paper used a ~12 MIPS
   SparcStation-1); shapes, ratios, and crossovers are what EXPERIMENTS.md
   compares. *)

open Relalg

let seed_base = 20260708

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let volcano_optimize ?(flags = Relmodel.Rel_model.default_flags) ?(pruning = true)
    ?max_moves (q : Workload.query) ~required =
  let request =
    {
      (Relmodel.Optimizer.request q.catalog) with
      flags;
      pruning;
      max_moves;
      (* Plans are compared bare: no cosmetic column-restoring projection. *)
      restore_columns = false;
    }
  in
  Relmodel.Optimizer.optimize request q.logical ~required

(* ------------------------------------------------------------------ *)
(* F4: Figure 4 — exhaustive optimization performance, Volcano vs      *)
(* EXODUS, 1-7 joins (2-8 input relations).                            *)
(* ------------------------------------------------------------------ *)

let f4 ~full () =
  header "F4  Figure 4: exhaustive optimization, Volcano vs EXODUS";
  Printf.printf
    "Per size: average optimization time and average estimated plan execution\n\
     time (both optimizers' plans re-costed by one neutral estimator).\n";
  let volcano_queries = if full then 50 else 30 in
  let exodus_queries n = if n <= 5 then volcano_queries else if n = 6 then 5 else 3 in
  let exodus_budget = 40_000 in
  Printf.printf
    "Volcano: %d queries/size. EXODUS: %d queries for <=5 relations, fewer after\n\
     (node budget %d; the paper's EXODUS likewise aborted on complex queries).\n\n"
    volcano_queries (exodus_queries 2) exodus_budget;
  Printf.printf
    "  n | volcano opt (ms) | exodus opt (ms) | time ratio | volcano exec (s) | exodus exec (s) | exec ratio | exodus ok\n";
  Printf.printf
    "  --+------------------+-----------------+------------+------------------+-----------------+------------+----------\n";
  List.iter
    (fun n ->
      let queries =
        Workload.generate_batch
          (Workload.spec ~shape:Workload.Chain ~n_relations:n ~seed:(seed_base + n) ())
          ~count:volcano_queries
      in
      let v_times = ref [] and v_costs = ref [] in
      List.iter
        (fun (q : Workload.query) ->
          let dt, result = time_it (fun () -> volcano_optimize q ~required:Phys_prop.any) in
          match result.plan with
          | None -> ()
          | Some plan ->
            v_times := dt :: !v_times;
            v_costs :=
              Cost.total
                (Relmodel.Plan_cost.estimate q.catalog
                   (Relmodel.Optimizer.to_physical plan))
              :: !v_costs)
        queries;
      let e_times = ref [] and e_costs = ref [] and e_ok = ref 0 in
      let e_abort_ratios = ref [] in
      let e_queries = List.filteri (fun i _ -> i < exodus_queries n) queries in
      List.iteri
        (fun i (q : Workload.query) ->
          let dt, result =
            time_it (fun () ->
                Exodus.optimize ~catalog:q.catalog ~max_nodes:exodus_budget q.logical
                  ~required:Phys_prop.any)
          in
          match result.plan with
          | Some plan when not result.aborted ->
            incr e_ok;
            e_times := dt :: !e_times;
            e_costs := Cost.total (Relmodel.Plan_cost.estimate q.catalog plan) :: !e_costs
          | Some plan ->
            (* Aborted search: compare its best-so-far plan against the
               Volcano optimum for the same query. *)
            let ec = Cost.total (Relmodel.Plan_cost.estimate q.catalog plan) in
            let vc = List.nth (List.rev !v_costs) i in
            e_abort_ratios := (ec /. vc) :: !e_abort_ratios
          | None -> ())
        e_queries;
      let v_t = mean !v_times *. 1000. and e_t = mean !e_times *. 1000. in
      let v_c = mean !v_costs and e_c = mean !e_costs in
      Printf.printf
        "  %d | %16.2f | %15.2f | %10.1f | %16.4f | %15.4f | %10.3f | %d/%d%s\n%!" n v_t e_t
        (e_t /. v_t) v_c e_c (e_c /. v_c) !e_ok (List.length e_queries)
        (if !e_abort_ratios = [] then ""
         else Printf.sprintf "  (aborted best-so-far %.2fx optimum)" (geomean !e_abort_ratios)))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* A1: memo deduplication — redundant derivations detected via the     *)
(* expression hash table and the winner table.                         *)
(* ------------------------------------------------------------------ *)

let a1 ~full () =
  header "A1  Memo deduplication (the hash table of expressions and classes)";
  Printf.printf
    "  n | groups | mexprs | rule firings | class merges | goals | winner hits | hit rate | tasks | stack hwm\n";
  Printf.printf
    "  --+--------+--------+--------------+--------------+-------+-------------+----------+-------+----------\n";
  let count = if full then 20 else 10 in
  List.iter
    (fun n ->
      let queries =
        Workload.generate_batch
          (Workload.spec ~n_relations:n ~seed:(seed_base + (100 * n)) ())
          ~count
      in
      let acc = Array.make 8 0. in
      List.iter
        (fun (q : Workload.query) ->
          let r = volcano_optimize q ~required:Phys_prop.any in
          let s = r.stats in
          acc.(0) <- acc.(0) +. Float.of_int r.memo_groups;
          acc.(1) <- acc.(1) +. Float.of_int r.memo_mexprs;
          acc.(2) <- acc.(2) +. Float.of_int s.rule_firings;
          acc.(3) <- acc.(3) +. Float.of_int s.merges;
          acc.(4) <- acc.(4) +. Float.of_int s.goals;
          acc.(5) <- acc.(5) +. Float.of_int s.goal_hits;
          acc.(6) <- acc.(6) +. Float.of_int s.tasks;
          acc.(7) <- acc.(7) +. Float.of_int s.stack_hwm)
        queries;
      let c = Float.of_int count in
      Printf.printf
        "  %d | %6.0f | %6.0f | %12.0f | %12.0f | %5.0f | %11.0f | %8.2f | %5.0f | %9.0f\n%!"
        n (acc.(0) /. c) (acc.(1) /. c) (acc.(2) /. c) (acc.(3) /. c) (acc.(4) /. c)
        (acc.(5) /. c)
        (acc.(5) /. (acc.(4) +. acc.(5)))
        (acc.(6) /. c) (acc.(7) /. c))
    [ 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* A2: branch-and-bound pruning — same optima, less work.              *)
(* ------------------------------------------------------------------ *)

let a2 ~full () =
  header "A2  Branch-and-bound pruning (cost limits of Figure 2)";
  Printf.printf
    "  n | time on (ms) | time off (ms) | plans on | plans off | pruned | optima equal\n";
  Printf.printf
    "  --+--------------+---------------+----------+-----------+--------+-------------\n";
  let count = if full then 20 else 10 in
  List.iter
    (fun n ->
      let queries =
        Workload.generate_batch
          (Workload.spec ~n_relations:n ~seed:(seed_base + (200 * n)) ())
          ~count
      in
      let t_on = ref [] and t_off = ref [] in
      let p_on = ref 0 and p_off = ref 0 and pruned = ref 0 in
      let equal = ref true in
      List.iter
        (fun (q : Workload.query) ->
          let dt1, r1 =
            time_it (fun () -> volcano_optimize ~pruning:true q ~required:Phys_prop.any)
          in
          let dt2, r2 =
            time_it (fun () -> volcano_optimize ~pruning:false q ~required:Phys_prop.any)
          in
          t_on := dt1 :: !t_on;
          t_off := dt2 :: !t_off;
          p_on := !p_on + r1.stats.plans_costed;
          p_off := !p_off + r2.stats.plans_costed;
          pruned := !pruned + r1.stats.pruned;
          match r1.plan, r2.plan with
          | Some a, Some b ->
            if Float.abs (Cost.total a.cost -. Cost.total b.cost) > 1e-9 then equal := false
          | _, _ -> equal := false)
        queries;
      Printf.printf "  %d | %12.3f | %13.3f | %8d | %9d | %6d | %b\n%!" n
        (mean !t_on *. 1000.) (mean !t_off *. 1000.) (!p_on / count) (!p_off / count)
        (!pruned / count) !equal)
    (if full then [ 3; 4; 5; 6; 7; 8 ] else [ 3; 4; 5; 6; 7 ])

(* ------------------------------------------------------------------ *)
(* A3: property-driven search vs after-the-fact glue sorting.          *)
(* ------------------------------------------------------------------ *)

let a3 ~full () =
  header "A3  Physical properties drive the search (ORDER BY queries)";
  Printf.printf
    "Volcano passes the sort requirement into the search (enforcers, excluding\n\
     vectors); the baseline optimizes ignoring order and glues a final sort on\n\
     top (the EXODUS/Starburst treatment the paper criticizes).\n\n";
  Printf.printf "  n | volcano cost | glue cost | glue/volcano (geomean)\n";
  Printf.printf "  --+--------------+-----------+-----------------------\n";
  let count = if full then 30 else 15 in
  List.iter
    (fun n ->
      let queries =
        Workload.generate_batch
          (Workload.spec ~n_relations:n ~seed:(seed_base + (300 * n)) ())
          ~count
      in
      let ratios = ref [] and v_costs = ref [] and g_costs = ref [] in
      List.iter
        (fun (q : Workload.query) ->
          (* Ask for the output sorted on the first relation's first join
             key — an order a merge join along the spine can produce. *)
          let order_col = List.hd q.relations ^ ".jk1" in
          let required = Phys_prop.sorted (Sort_order.asc [ order_col ]) in
          let v = volcano_optimize q ~required in
          let g = volcano_optimize q ~required:Phys_prop.any in
          match v.plan, g.plan with
          | Some vp, Some gp ->
            let vc =
              Cost.total
                (Relmodel.Plan_cost.estimate q.catalog (Relmodel.Optimizer.to_physical vp))
            in
            let gplan =
              Physical.mk (Physical.Sort required.Phys_prop.order)
                [ Relmodel.Optimizer.to_physical gp ]
            in
            let gc = Cost.total (Relmodel.Plan_cost.estimate q.catalog gplan) in
            v_costs := vc :: !v_costs;
            g_costs := gc :: !g_costs;
            ratios := (gc /. vc) :: !ratios
          | _, _ -> ())
        queries;
      Printf.printf "  %d | %12.4f | %9.4f | %21.4f\n%!" n (mean !v_costs) (mean !g_costs)
        (geomean !ratios))
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* A4: heuristic guidance — the implementor's search knobs.            *)
(* ------------------------------------------------------------------ *)

let a4 ~full () =
  header "A4  Heuristic guidance: exhaustive vs left-deep vs top-k moves";
  Printf.printf "  n | exhaustive ms/cost | left-deep ms/cost | top-8 moves ms/cost\n";
  Printf.printf "  --+--------------------+-------------------+--------------------\n";
  let count = if full then 20 else 10 in
  let run_variant queries ~flags ~max_moves =
    let times = ref [] and costs = ref [] in
    List.iter
      (fun (q : Workload.query) ->
        let dt, r =
          time_it (fun () -> volcano_optimize ~flags ?max_moves q ~required:Phys_prop.any)
        in
        match r.plan with
        | Some p ->
          times := dt :: !times;
          costs :=
            Cost.total
              (Relmodel.Plan_cost.estimate q.catalog (Relmodel.Optimizer.to_physical p))
            :: !costs
        | None -> ())
      queries;
    (mean !times *. 1000., mean !costs)
  in
  List.iter
    (fun n ->
      let queries =
        Workload.generate_batch
          (Workload.spec ~n_relations:n ~seed:(seed_base + (400 * n)) ())
          ~count
      in
      let open Relmodel.Rel_model in
      let ex_t, ex_c = run_variant queries ~flags:default_flags ~max_moves:None in
      let ld_t, ld_c =
        run_variant queries ~flags:{ default_flags with left_deep_only = true } ~max_moves:None
      in
      let tk_t, tk_c = run_variant queries ~flags:default_flags ~max_moves:(Some 8) in
      Printf.printf "  %d | %9.2f / %-8.3f | %8.2f / %-8.3f | %9.2f / %-8.3f\n%!" n ex_t ex_c
        ld_t ld_c tk_t tk_c)
    [ 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* A5: multiple alternative input property vectors (merge set ops).    *)
(* ------------------------------------------------------------------ *)

let a5 ~full () =
  header "A5  Alternative input property vectors (the intersection example)";
  ignore full;
  Printf.printf
    "INTERSECT of two relations both stored sorted on (y, x) — the rotated\n\
     column order. With alternative vectors enabled the merge intersection\n\
     exploits the stored order directly (the paper's R sorted on (A,B,C),\n\
     S sorted on (B,A,C) example); without them only the (x, y) vector is\n\
     tried and the stored order is wasted.\n\n";
  let catalog = Catalog.create () in
  let make_table name seed =
    let rng = Random.State.make [| seed |] in
    let tuples =
      Array.init 4_000 (fun _ ->
          [| Value.Int (Random.State.int rng 40); Value.Int (Random.State.int rng 40) |])
    in
    let rotated = Sort_order.asc [ name ^ ".y"; name ^ ".x" ] in
    let schema =
      [| Schema.attribute (name ^ ".x") Schema.TInt; Schema.attribute (name ^ ".y") Schema.TInt |]
    in
    Array.sort (Sort_order.compare_tuples schema rotated) tuples;
    ignore (Catalog.add catalog ~name ~schema ~stored_order:rotated tuples)
  in
  make_table "a" 51;
  make_table "b" 52;
  let query = Logical.intersect (Logical.get "a") (Logical.get "b") in
  (* Require the output in the rotated order. *)
  let required =
    { Phys_prop.any with order = Sort_order.asc [ "a.y"; "a.x" ]; distinct = true }
  in
  let run ~alternatives =
    let flags = { Relmodel.Rel_model.default_flags with alternatives } in
    let request = { (Relmodel.Optimizer.request catalog) with flags } in
    let dt, result =
      time_it (fun () -> Relmodel.Optimizer.optimize request query ~required)
    in
    match result.plan with
    | None -> (dt, nan, "no plan")
    | Some p -> (dt, Cost.total p.cost, Physical.alg_name p.alg)
  in
  let t_on, c_on, root_on = run ~alternatives:true in
  let t_off, c_off, root_off = run ~alternatives:false in
  Printf.printf "  alternatives on : cost %.4f  root %-24s (%.2f ms)\n" c_on root_on
    (t_on *. 1000.);
  Printf.printf "  alternatives off: cost %.4f  root %-24s (%.2f ms)\n" c_off root_off
    (t_off *. 1000.);
  Printf.printf "  saving: %.1f%%\n%!" (100. *. (1. -. (c_on /. c_off)))

(* ------------------------------------------------------------------ *)
(* A6: search-space growth — optimization effort tracks the number of  *)
(* equivalent logical expressions (Ono-Lohman).                        *)
(* ------------------------------------------------------------------ *)

let a6 ~full () =
  header "A6  Growth of the logical search space (cf. Ono & Lohman)";
  Printf.printf
    "For a chain query with Cartesian products admitted, the number of join\n\
     multi-expressions in the memo is sum over subsets S (|S|>=2) of\n\
     (2^|S| - 2) = 3^n - 2^(n+1) + n + 1; optimization time should track it.\n\n";
  Printf.printf "  n | mexprs (measured) | join mexprs (theory) | time (ms)\n";
  Printf.printf "  --+-------------------+----------------------+----------\n";
  let count = if full then 10 else 5 in
  List.iter
    (fun n ->
      let queries =
        Workload.generate_batch
          (Workload.spec ~n_relations:n ~seed:(seed_base + (600 * n)) ())
          ~count
      in
      let times = ref [] and mexprs = ref [] in
      List.iter
        (fun (q : Workload.query) ->
          let dt, r = time_it (fun () -> volcano_optimize q ~required:Phys_prop.any) in
          times := dt :: !times;
          mexprs := Float.of_int r.memo_mexprs :: !mexprs)
        queries;
      let theory =
        (3. ** Float.of_int n) -. (2. ** Float.of_int (n + 1)) +. Float.of_int n +. 1.
      in
      Printf.printf "  %d | %17.0f | %20.0f | %8.2f\n%!" n (mean !mexprs) theory
        (mean !times *. 1000.))
    [ 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* A7: partitioning as a physical property — exchange enforcers and    *)
(* co-partitioned parallel joins (paper §4.1/§6).                      *)
(* ------------------------------------------------------------------ *)

let a7 ~full () =
  header "A7  Partitioning property: exchanges and parallel joins";
  ignore full;
  let make_catalog () =
    let c = Catalog.create () in
    let add name rows seed part =
      let rng = Random.State.make [| seed |] in
      let tuples =
        Array.init rows (fun i ->
            [| Value.Int i; Value.Int (Random.State.int rng 500);
               Value.Int (Random.State.int rng 100) |])
      in
      let schema =
        [|
          Schema.attribute (name ^ ".id") Schema.TInt;
          Schema.attribute (name ^ ".k") Schema.TInt;
          Schema.attribute (name ^ ".v") Schema.TInt;
        |]
      in
      ignore (Catalog.add c ~name ~schema ?stored_partitioning:part tuples)
    in
    add "f1" 6_000 91 (Some (Phys_prop.Hashed [ "f1.k" ]));
    add "f2" 6_000 92 (Some (Phys_prop.Hashed [ "f2.k" ]));
    c
  in
  let catalog = make_catalog () in
  let query =
    Expr.(Logical.join (col "f1.k" =% col "f2.k") (Logical.get "f1") (Logical.get "f2"))
  in
  Printf.printf
    "Join of two relations pre-partitioned on the join key, result gathered at\n\
     one site; the co-partitioned parallel join divides the work across the\n\
     workers, paying one exchange.\n\n";
  Printf.printf "  workers | est. cost | plan root\n";
  Printf.printf "  --------+-----------+----------\n";
  List.iter
    (fun workers ->
      let request =
        {
          (Relmodel.Optimizer.request catalog) with
          params = { Cost_model.default with workers };
          restore_columns = false;
        }
      in
      let result = Relmodel.Optimizer.optimize request query ~required:Phys_prop.gathered in
      match result.plan with
      | None -> Printf.printf "  %7d | no plan\n%!" workers
      | Some p ->
        Printf.printf "  %7d | %9.4f | %s\n%!" workers (Cost.total p.cost)
          (Physical.alg_name p.alg))
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* A8: dynamic plans for incompletely specified queries (paper §1,     *)
(* requirement 5).                                                      *)
(* ------------------------------------------------------------------ *)

let a8 ~full () =
  header "A8  Dynamic plans (parameterized query, unknown selectivity)";
  ignore full;
  let catalog = Catalog.create () in
  ignore
    (Catalog.add_synthetic catalog ~name:"fact"
       ~columns:[ ("k", Catalog.Uniform_int (0, 499)); ("v", Catalog.Uniform_int (0, 9_999)) ]
       ~rows:6_000 ~seed:31 ());
  ignore
    (Catalog.add_synthetic catalog ~name:"dim"
       ~columns:[ ("k", Catalog.Uniform_int (0, 499)); ("w", Catalog.Uniform_int (0, 99)) ]
       ~rows:3_000 ~seed:32 ());
  let template param =
    let open Expr in
    Logical.join
      (col "fact.k" =% col "dim.k")
      (Logical.select (Expr.Cmp (Expr.Le, col "fact.v", Expr.Const param)) (Logical.get "fact"))
      (Logical.get "dim")
  in
  let request =
    { (Relmodel.Optimizer.request catalog) with restore_columns = false }
  in
  let prepared =
    Dynplan.prepare ~request template ~range:(0., 400.) ~buckets:16 ~required:Phys_prop.any ()
  in
  Printf.printf
    "The parameter bounds fact.v; selectivity is unknown until run time. The\n\
     dynamic plan keeps %d distinct plans; the static plan is optimized at the\n\
     range midpoint. Costs below are the neutral estimate of the instantiated\n\
     plans; 'oracle' re-optimizes for the actual value.\n\n"
    (Dynplan.n_distinct_plans prepared);
  Printf.printf "  param | dynamic | static | oracle | static/dynamic\n";
  Printf.printf "  ------+---------+--------+--------+---------------\n";
  List.iter
    (fun v ->
      let param = Value.Int v in
      let b = Dynplan.choose prepared param in
      let dynamic =
        Cost.total
          (Relmodel.Plan_cost.estimate catalog
             (Dynplan.instantiate b.Dynplan.plan ~witness:b.Dynplan.witness ~actual:param))
      in
      let static_ =
        Cost.total
          (Relmodel.Plan_cost.estimate catalog
             (Dynplan.instantiate prepared.Dynplan.static_plan ~witness:200. ~actual:param))
      in
      let oracle =
        match (Relmodel.Optimizer.optimize request (template param) ~required:Phys_prop.any).plan with
        | Some p -> Cost.total p.cost
        | None -> nan
      in
      Printf.printf "  %5d | %7.4f | %6.4f | %6.4f | %14.2f\n%!" v dynamic static_ oracle
        (static_ /. dynamic))
    [ 2; 10; 25; 50; 100; 200; 400 ]

(* ------------------------------------------------------------------ *)
(* A9: longer-lived partial results — one memo across queries (§3).    *)
(* ------------------------------------------------------------------ *)

let a9 ~full () =
  header "A9  Memo reuse across queries (longer-lived partial results)";
  let n = 6 in
  let count = if full then 30 else 15 in
  (* Queries over one catalog sharing subexpressions: prefixes of a
     chain with varying selections. *)
  let base = Workload.generate (Workload.spec ~n_relations:n ~seed:(seed_base + 999) ()) in
  let queries =
    (* Re-optimize the same query repeatedly plus its join prefixes:
       the session should answer later requests mostly from the memo. *)
    List.concat
      (List.init count (fun _ ->
           let rec prefixes (e : Logical.expr) acc =
             match e.Logical.op, e.Logical.inputs with
             | Logical.Join _, [ l; _ ] -> prefixes l (e :: acc)
             | _, _ -> acc
           in
           prefixes base.logical []))
  in
  let request =
    { (Relmodel.Optimizer.request base.catalog) with restore_columns = false }
  in
  let t_fresh, _ =
    time_it (fun () ->
        List.iter
          (fun q -> ignore (Relmodel.Optimizer.optimize request q ~required:Phys_prop.any))
          queries)
  in
  let t_session, _ =
    time_it (fun () ->
        let s = Relmodel.Optimizer.session request in
        List.iter
          (fun q -> ignore (Relmodel.Optimizer.optimize_in s q ~required:Phys_prop.any))
          queries)
  in
  Printf.printf
    "%d optimizations of overlapping queries (%d-relation chain and its prefixes):\n"
    (List.length queries) n;
  Printf.printf "  fresh memo per query : %8.2f ms\n" (t_fresh *. 1000.);
  Printf.printf "  one session memo     : %8.2f ms   (%.1fx faster)\n%!"
    (t_session *. 1000.) (t_fresh /. t_session)

(* ------------------------------------------------------------------ *)
(* A10: anytime optimization — plan quality under a task budget.       *)
(* ------------------------------------------------------------------ *)

let a10 ~full () =
  header "A10  Anytime optimization (task budgets on the stepper loop)";
  Printf.printf
    "The task engine stops cleanly when its step budget runs out and returns\n\
     the best complete plan found so far. Plan quality vs budget, as a\n\
     geomean ratio over the exhaustive optimum ('-' = no plan yet).\n\n";
  let n = 6 in
  let count = if full then 20 else 10 in
  let queries =
    Workload.generate_batch
      (Workload.spec ~shape:Workload.Chain ~n_relations:n ~seed:(seed_base + 1000) ())
      ~count
  in
  let optimum =
    List.map
      (fun (q : Workload.query) ->
        match (volcano_optimize q ~required:Phys_prop.any).plan with
        | Some p -> Cost.total p.cost
        | None -> nan)
      queries
  in
  let exhaustive_tasks =
    List.map
      (fun (q : Workload.query) ->
        (volcano_optimize q ~required:Phys_prop.any).tasks_run)
      queries
  in
  Printf.printf "  exhaustive search: %.0f tasks on average (%d-relation chain)\n\n"
    (mean (List.map Float.of_int exhaustive_tasks))
    n;
  Printf.printf "  budget (tasks) | plans found | cost / optimum (geomean)\n";
  Printf.printf "  ---------------+-------------+-------------------------\n";
  List.iter
    (fun budget ->
      let found = ref 0 and ratios = ref [] in
      List.iter2
        (fun (q : Workload.query) opt ->
          let request =
            {
              (Relmodel.Optimizer.request q.catalog) with
              max_tasks = Some budget;
              restore_columns = false;
            }
          in
          let r = Relmodel.Optimizer.optimize request q.logical ~required:Phys_prop.any in
          match r.plan with
          | Some p ->
            incr found;
            ratios := (Cost.total p.cost /. opt) :: !ratios
          | None -> ())
        queries optimum;
      Printf.printf "  %14d | %8d/%-2d | %s\n%!" budget !found count
        (if !ratios = [] then "-" else Printf.sprintf "%.4f" (geomean !ratios)))
    [ 50; 200; 500; 1_000; 2_000; 5_000; 20_000 ]

(* ------------------------------------------------------------------ *)
(* PLANSRV: the plan-cache service under a repeated workload — warm    *)
(* hits vs cold optimizations, and concurrent serving throughput.      *)
(* Writes BENCH_plansrv.json next to the build.                        *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let plansrv_bench ~full () =
  header "PLANSRV  Plan-cache service: repeated workload, warm vs cold";
  let replays = if full then 100 else 50 in
  (* 20 distinct queries over one catalog: the same 5-relation chain
     under 20 different selection constants — the shape of a
     parameterized application workload. *)
  let base = Workload.generate (Workload.spec ~n_relations:5 ~seed:(seed_base + 1100) ()) in
  let catalog = base.catalog in
  let first_col = List.hd base.relations ^ ".jk1" in
  let uniques =
    List.init 20 (fun i ->
        Logical.select Expr.(col first_col >=% int (2 * i)) base.logical)
  in
  let n_unique = List.length uniques in
  (* The request stream: every unique query replayed [replays] times, in
     a deterministically shuffled order. *)
  let rng = Random.State.make [| seed_base + 1101 |] in
  let stream = Array.concat (List.init replays (fun _ -> Array.of_list uniques)) in
  let n = Array.length stream in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = stream.(i) in
    stream.(i) <- stream.(j);
    stream.(j) <- tmp
  done;
  let request =
    { (Relmodel.Optimizer.request catalog) with restore_columns = false }
  in
  (* Latency profile on one worker: per-response latency is measured
     inside the service. *)
  let srv = Plansrv.create (Plansrv.config request) in
  let w = Plansrv.worker srv in
  let responses =
    Array.map (fun q -> Plansrv.serve_one srv w q ~required:Phys_prop.any) stream
  in
  let latencies outcome =
    Array.to_list responses
    |> List.filter_map (fun (r : Plansrv.response) ->
           if r.outcome = outcome then Some r.latency_ms else None)
  in
  let cold = latencies Plansrv.Miss and warm = latencies Plansrv.Hit in
  let m = Plansrv.metrics srv in
  let cold_med = median cold and warm_med = median warm in
  let speedup = cold_med /. warm_med in
  Printf.printf
    "%d unique queries x %d replays = %d requests; hits %d, misses %d (hit rate %.1f%%)\n"
    n_unique replays n m.hits m.misses
    (100. *. Float.of_int m.hits /. Float.of_int m.requests);
  Printf.printf "  cold (optimize) median: %8.3f ms   mean: %8.3f ms\n" cold_med (mean cold);
  Printf.printf "  warm (cache hit) median: %7.3f ms   mean: %8.3f ms\n" warm_med (mean warm);
  Printf.printf "  median speedup: %.1fx\n\n" speedup;
  (* Concurrent throughput: per worker count, a cold run on a fresh
     service (its misses column counts duplicated optimizations from
     concurrent workers missing on the same key) and a second, fully
     warmed run over the same stream. Domains beyond the available
     cores only add scheduling and GC-synchronization overhead, so read
     the scaling against the reported core count. *)
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  available cores: %d\n" cores;
  Printf.printf "  workers | cold (ms) | misses | warm (ms) | warm req/s | lock-free hits\n";
  Printf.printf "  --------+-----------+--------+-----------+------------+---------------\n";
  let batch = Array.map (fun q -> (q, Phys_prop.any)) stream in
  let throughput =
    List.map
      (fun workers ->
        let srv = Plansrv.create (Plansrv.config request) in
        let dt_cold, _ = time_it (fun () -> ignore (Plansrv.serve ~workers srv batch)) in
        let misses = (Plansrv.metrics srv).misses in
        let before_warm = (Plansrv.metrics srv).lockfree_hits in
        let dt_warm, _ = time_it (fun () -> ignore (Plansrv.serve ~workers srv batch)) in
        (* Every request of the warmed pass must have been served off the
           shard snapshot without locking: that is the machine-neutral
           signal that warm throughput scales with workers even on a
           single-core container. *)
        let lockfree = (Plansrv.metrics srv).lockfree_hits - before_warm in
        let rps = Float.of_int n /. dt_warm in
        Printf.printf "  %7d | %9.1f | %6d | %9.1f | %10.0f | %d/%d\n%!" workers
          (dt_cold *. 1000.) misses (dt_warm *. 1000.) rps lockfree n;
        (workers, dt_cold *. 1000., misses, dt_warm *. 1000., rps, lockfree))
      [ 1; 2; 4 ]
  in
  let oc = open_out "BENCH_plansrv.json" in
  Printf.fprintf oc
    "{\n\
    \  \"unique_queries\": %d,\n\
    \  \"replays\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"hits\": %d,\n\
    \  \"misses\": %d,\n\
    \  \"hit_rate\": %.4f,\n\
    \  \"cold_median_ms\": %.4f,\n\
    \  \"cold_mean_ms\": %.4f,\n\
    \  \"warm_median_ms\": %.4f,\n\
    \  \"warm_mean_ms\": %.4f,\n\
    \  \"median_speedup\": %.1f,\n\
    \  \"evictions\": %d,\n\
    \  \"entries\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"throughput\": [\n%s\n\
    \  ]\n\
     }\n"
    n_unique replays n m.hits m.misses
    (Float.of_int m.hits /. Float.of_int m.requests)
    cold_med (mean cold) warm_med (mean warm) speedup m.evictions m.entries cores
    (String.concat ",\n"
       (List.map
          (fun (w, cold_ms, misses, warm_ms, rps, lockfree) ->
            Printf.sprintf
              "    { \"workers\": %d, \"cold_wall_ms\": %.1f, \"cold_misses\": %d, \
               \"warm_wall_ms\": %.1f, \"warm_req_per_s\": %.0f, \
               \"warm_lockfree_hits\": %d }"
              w cold_ms misses warm_ms rps lockfree)
          throughput));
  close_out oc;
  Printf.printf "\n  wrote BENCH_plansrv.json\n%!"

(* ------------------------------------------------------------------ *)
(* PRUNING  Guided-pruning ablation (BENCH_pruning.json)               *)
(* ------------------------------------------------------------------ *)

(* Three arms over the same workloads: no pruning at all, plain
   Figure-2 branch-and-bound, and Figure 2 plus the guided layer
   (group cost lower bounds driving goal kills, doomed-move
   projections, and sibling-aware input limits). The winning plan must
   be bit-identical across every arm; total engine tasks are the
   machine-independent work measure. [smoke] shrinks the sizes for CI and makes the run exit
   nonzero when any arm diverges or the star workload shows no
   lower-bound pruning. *)
let pruning_bench ?(smoke = false) ~full () =
  header "PRUNING  Guided pruning ablation (group cost lower bounds)";
  Printf.printf
    "Per workload and required property: wall clock (best of %d), total engine\n\
     tasks, and the guided-pruning counters. \"identical\" compares the plan\n\
     rendering (operators, properties, per-node costs to the last bit) against\n\
     the no-pruning arm of the same workload.\n\n"
    (if smoke then 1 else 3);
  let sizes = if smoke then [ 4; 5 ] else if full then [ 5; 6; 7; 8 ] else [ 5; 6; 7 ] in
  let reps = if smoke then 1 else 3 in
  let workloads =
    List.concat_map
      (fun n -> [ (Workload.Chain, "chain", n); (Workload.Star, "star", n) ])
      sizes
  in
  let arms = [ ("none", false, false); ("figure2", true, false); ("guided", true, true) ] in
  let render (result : Relmodel.Optimizer.result) =
    match result.plan with
    | None -> "NONE"
    | Some p ->
      Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Printf.printf
    "  workload | required | arm     | wall (ms) | tasks | lb-pruned | tightened | fastpath | identical\n";
  Printf.printf
    "  ---------+----------+---------+-----------+-------+-----------+-----------+----------+----------\n";
  let rows =
    List.concat_map
      (fun (shape, name, n) ->
        let q =
          Workload.generate
            (Workload.spec ~shape ~n_relations:n ~seed:(seed_base + (1300 * n)) ())
        in
        let requireds =
          [
            ("any", Phys_prop.any);
            ("sorted", Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ]));
          ]
        in
        List.concat_map
          (fun (rname, required) ->
            let measure ~pruning ~guided =
              let request =
                {
                  (Relmodel.Optimizer.request q.catalog) with
                  restore_columns = false;
                  pruning;
                  guided_pruning = guided;
                }
              in
              let best = ref infinity and last = ref None in
              for _ = 1 to reps do
                let dt, r =
                  time_it (fun () ->
                      Relmodel.Optimizer.optimize request q.logical ~required)
                in
                if dt < !best then best := dt;
                last := Some r
              done;
              (!best *. 1000., Option.get !last)
            in
            let baseline = ref "" in
            List.map
                (fun (arm, pruning, guided) ->
                  let ms, r = measure ~pruning ~guided in
                  let rendered = render r in
                  if arm = "none" then baseline := rendered;
                  let identical = rendered = !baseline in
                  if not identical then
                    fail "%s n=%d %s: arm %s diverges from no-pruning plan" name n
                      rname arm;
                  let s = r.stats in
                  Printf.printf
                    "  %5s n=%d | %8s | %-7s | %9.1f | %5d | %9d | %9d | %8d | %b\n%!"
                    name n rname arm ms s.tasks s.goals_pruned_lb
                    s.input_limits_tightened s.memo_fastpath_hits identical;
                  ( name, n, rname, arm, ms, s.tasks, s.goals_pruned_lb,
                    s.input_limits_tightened, s.memo_fastpath_hits,
                    (match r.plan with Some p -> Cost.total p.cost | None -> nan),
                    identical ))
                arms)
          requireds)
      workloads
  in
  let star_tasks arm =
    List.fold_left
      (fun acc (name, _, _, a, _, tasks, _, _, _, _, _) ->
        if name = "star" && a = arm then acc + tasks else acc)
      0 rows
  in
  let star_lb_pruned =
    List.fold_left
      (fun acc (name, _, _, a, _, _, lb, _, _, _, _) ->
        if name = "star" && a = "guided" then acc + lb else acc)
      0 rows
  in
  let f2 = star_tasks "figure2" and guided = star_tasks "guided" in
  let reduction = 100. *. (1. -. (Float.of_int guided /. Float.of_int f2)) in
  Printf.printf
    "\n  star workload: figure2 %d tasks, guided %d tasks (%.1f%% reduction); \
     lb-pruned %d\n"
    f2 guided reduction star_lb_pruned;
  if star_lb_pruned = 0 then
    fail "star workload: guided arm never pruned on a lower bound";
  let oc = open_out "BENCH_pruning.json" in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"star_task_reduction_pct\": %.2f,\n\
    \  \"star_goals_pruned_lb\": %d,\n\
    \  \"all_arms_identical\": %b,\n  \"runs\": [\n%s\n  ]\n}\n"
    (Domain.recommended_domain_count ()) reduction star_lb_pruned (!failures = [])
    (String.concat ",\n"
       (List.map
          (fun (name, n, rname, arm, ms, tasks, lb, tight, fast, cost, identical) ->
            Printf.sprintf
              "    { \"workload\": \"%s\", \"relations\": %d, \"required\": \"%s\", \
               \"arm\": \"%s\", \"wall_ms\": %.2f, \"tasks\": %d, \
               \"goals_pruned_lb\": %d, \"input_limits_tightened\": %d, \
               \"memo_fastpath_hits\": %d, \"plan_cost\": %.17g, \
               \"identical_to_no_pruning\": %b }"
              name n rname arm ms tasks lb tight fast cost identical)
          rows));
  close_out oc;
  Printf.printf "\n  wrote BENCH_pruning.json\n%!";
  if !failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev !failures);
    if smoke then exit 1
  end

(* ------------------------------------------------------------------ *)
(* OBS  Observability overhead (BENCH_obs.json)                        *)
(* ------------------------------------------------------------------ *)

(* Five arms over the same workloads: observability off, span tracing
   on (one span per engine task plus goal and phase spans), tracing
   plus EXPLAIN alternative recording, the per-rule profiler, and the
   profiler plus the flight-recorder ring. The winning plan must stay
   bit-identical across all arms — observability may cost time but must
   never steer the search — the traced arm's span counts must equal the
   engine's task counters, and the profiled arms' per-rule task sums
   must equal the same counters (trace and profile are each a complete
   account of the work). [smoke] shrinks sizes for CI and exits nonzero
   when a plan diverges, parity breaks, or the overhead explodes. *)
let obs_bench ?(smoke = false) ~full () =
  header "OBS  Observability overhead (tracing, EXPLAIN, profiler, recorder)";
  let sizes = if smoke then [ 4; 5 ] else if full then [ 5; 6; 7 ] else [ 5; 6 ] in
  let reps = if smoke then 3 else 7 in
  Printf.printf
    "Per workload: median wall clock of %d runs per arm, span counts of the\n\
     traced arm, and each arm's overhead relative to the off arm.\n\n"
    reps;
  let workloads =
    List.concat_map
      (fun n -> [ (Workload.Chain, "chain", n); (Workload.Star, "star", n) ])
      sizes
  in
  let render (result : Relmodel.Optimizer.result) =
    match result.plan with
    | None -> "NONE"
    | Some p ->
      Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Printf.printf
    "  workload | arm               | wall (ms) | tasks | spans | overhead\n";
  Printf.printf
    "  ---------+-------------------+-----------+-------+-------+---------\n";
  let rows =
    List.concat_map
      (fun (shape, name, n) ->
        let q =
          Workload.generate
            (Workload.spec ~shape ~n_relations:n ~seed:(seed_base + (1700 * n)) ())
        in
        let measure ~arm =
          (* Fresh collectors per run: buffers are per-optimization. *)
          let samples = ref []
          and last = ref None
          and last_tracer = ref None
          and last_profiler = ref None in
          for _ = 1 to reps do
            let tracer =
              if arm = "trace" || arm = "trace+explain" then
                Some (Obs.Trace.create ())
              else None
            in
            let profiler =
              if arm = "profile" || arm = "profile+flightrec" then
                Some (Obs.Profile.create ())
              else None
            in
            let recorder =
              if arm = "profile+flightrec" then
                Some (Obs.Flight_recorder.create ())
              else None
            in
            let request =
              {
                (Relmodel.Optimizer.request q.catalog) with
                restore_columns = false;
                tracer;
                profiler;
                recorder;
                explain = arm = "trace+explain";
              }
            in
            let dt, r =
              time_it (fun () ->
                  Relmodel.Optimizer.optimize request q.logical
                    ~required:Phys_prop.any)
            in
            samples := (dt *. 1000.) :: !samples;
            last := Some r;
            last_tracer := tracer;
            last_profiler := profiler
          done;
          (median !samples, Option.get !last, !last_tracer, !last_profiler)
        in
        let base_ms, base_r, _, _ = measure ~arm:"off" in
        let baseline = render base_r in
        List.map
          (fun arm ->
            let ms, r, tracer, profiler =
              if arm = "off" then (base_ms, base_r, None, None) else measure ~arm
            in
            if render r <> baseline then
              fail "%s n=%d: arm %s diverges from the untraced plan" name n arm;
            let spans, task_spans =
              match tracer with
              | None -> (0, 0)
              | Some tr ->
                ( Obs.Trace.total tr,
                  List.length
                    (List.filter
                       (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_cat = "task")
                       (Obs.Trace.spans tr)) )
            in
            if tracer <> None && task_spans <> r.stats.Volcano.Search_stats.tasks then
              fail "%s n=%d: arm %s recorded %d task spans for %d tasks" name n arm
                task_spans r.stats.Volcano.Search_stats.tasks;
            (match profiler with
             | None -> ()
             | Some pr ->
               let total = Obs.Profile.total_tasks pr in
               if total <> r.stats.Volcano.Search_stats.tasks then
                 fail "%s n=%d: arm %s attributed %d tasks for %d executed" name n
                   arm total r.stats.Volcano.Search_stats.tasks);
            let overhead = 100. *. ((ms /. base_ms) -. 1.) in
            Printf.printf "  %5s n=%d | %-17s | %9.2f | %5d | %5d | %+7.1f%%\n%!"
              name n arm ms r.stats.Volcano.Search_stats.tasks spans
              (if arm = "off" then 0. else overhead);
            (name, n, arm, ms, r.stats.Volcano.Search_stats.tasks, spans, overhead))
          [ "off"; "trace"; "trace+explain"; "profile"; "profile+flightrec" ])
      workloads
  in
  (* Overhead across workloads: tracing buys a complete account of the
     search for a bounded slice of the wall clock. The geomean of the
     per-workload ratios is the headline; the smoke gate is generous
     (4x) because CI machines are noisy and smoke sizes are tiny. *)
  let ratios arm =
    List.filter_map
      (fun (_, _, a, _, _, _, overhead) ->
        if a = arm then Some (1. +. (overhead /. 100.)) else None)
      rows
  in
  let trace_x = geomean (ratios "trace") in
  let explain_x = geomean (ratios "trace+explain") in
  let profile_x = geomean (ratios "profile") in
  let flightrec_x = geomean (ratios "profile+flightrec") in
  Printf.printf
    "\n  geomean slowdown: tracing %.2fx, tracing+explain %.2fx, profiler \
     %.2fx,\n  profiler+flightrec %.2fx (off = 1.00x)\n"
    trace_x explain_x profile_x flightrec_x;
  if smoke && trace_x > 4. then
    fail "tracing slowdown %.2fx exceeds the 4x smoke gate" trace_x;
  (* The profiler and ring are counters and preallocated slots, no
     allocation per event: they must stay far cheaper than tracing. *)
  if smoke && profile_x > 2. then
    fail "profiler slowdown %.2fx exceeds the 2x smoke gate" profile_x;
  if smoke && flightrec_x > 2. then
    fail "profiler+flightrec slowdown %.2fx exceeds the 2x smoke gate" flightrec_x;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"trace_slowdown_x\": %.3f,\n\
    \  \"trace_explain_slowdown_x\": %.3f,\n\
    \  \"profile_slowdown_x\": %.3f,\n\
    \  \"profile_flightrec_slowdown_x\": %.3f,\n\
    \  \"all_arms_identical\": %b,\n  \"runs\": [\n%s\n  ]\n}\n"
    (Domain.recommended_domain_count ()) trace_x explain_x profile_x flightrec_x
    (!failures = [])
    (String.concat ",\n"
       (List.map
          (fun (name, n, arm, ms, tasks, spans, overhead) ->
            Printf.sprintf
              "    { \"workload\": \"%s\", \"relations\": %d, \"arm\": \"%s\", \
               \"wall_ms\": %.3f, \"tasks\": %d, \"spans\": %d, \
               \"overhead_pct\": %.1f }"
              name n arm ms tasks spans overhead)
          rows));
  close_out oc;
  Printf.printf "\n  wrote BENCH_obs.json\n%!";
  if !failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev !failures);
    if smoke then exit 1
  end

(* ------------------------------------------------------------------ *)
(* OBSPROF  Profiler / flight-recorder watchdog (no report)            *)
(* ------------------------------------------------------------------ *)

(* The regression watchdog behind the profiled arms of OBS: off vs
   profiler vs profiler+flight-recorder. Three properties gate the run —
   the plan stays bit-identical, the profiler's per-rule task sums equal
   the engine's task counters on every arm, and the profiled arms stay
   under 2x the off arm. Prints and gates; the
   durable numbers live in BENCH_obs.json. *)
let obsprof_bench ?(smoke = false) ~full () =
  header "OBSPROF  Profiler & flight-recorder watchdog (plan-inert, <2x)";
  let sizes = if smoke then [ 4; 5 ] else if full then [ 5; 6 ] else [ 5 ] in
  let reps = if smoke then 3 else 5 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let render (result : Relmodel.Optimizer.result) =
    match result.plan with
    | None -> "NONE"
    | Some p ->
      Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)
  in
  Printf.printf
    "  workload | arm               | wall (ms) | tasks | overhead\n";
  Printf.printf
    "  ---------+-------------------+-----------+-------+---------\n";
  let ratios = ref [] in
  List.iter
    (fun (shape, name, n) ->
      let q =
        Workload.generate
          (Workload.spec ~shape ~n_relations:n ~seed:(seed_base + (2300 * n)) ())
      in
      let measure ~arm =
        let samples = ref [] and last = ref None and last_profiler = ref None in
        for _ = 1 to reps do
          let profiler = if arm = "off" then None else Some (Obs.Profile.create ()) in
          let recorder =
            if arm = "profile+flightrec" then Some (Obs.Flight_recorder.create ())
            else None
          in
          let request =
            {
              (Relmodel.Optimizer.request q.catalog) with
              restore_columns = false;
              profiler;
              recorder;
            }
          in
          let dt, r =
            time_it (fun () ->
                Relmodel.Optimizer.optimize request q.logical ~required:Phys_prop.any)
          in
          samples := (dt *. 1000.) :: !samples;
          last := Some r;
          last_profiler := profiler
        done;
        (median !samples, Option.get !last, !last_profiler)
      in
      let base_ms, base_r, _ = measure ~arm:"off" in
      let baseline = render base_r in
      List.iter
        (fun arm ->
          let ms, r, profiler =
            if arm = "off" then (base_ms, base_r, None) else measure ~arm
          in
          if render r <> baseline then fail "%s n=%d: arm %s changes the plan" name n arm;
          (match profiler with
           | None -> ()
           | Some pr ->
             let total = Obs.Profile.total_tasks pr in
             if total <> r.stats.Volcano.Search_stats.tasks then
               fail "%s n=%d: arm %s attributed %d tasks for %d executed" name n arm
                 total r.stats.Volcano.Search_stats.tasks);
          let x = ms /. base_ms in
          if arm <> "off" then ratios := x :: !ratios;
          Printf.printf "  %5s n=%d | %-17s | %9.2f | %5d | %+7.1f%%\n%!" name n arm ms
            r.stats.Volcano.Search_stats.tasks
            (if arm = "off" then 0. else 100. *. (x -. 1.)))
        [ "off"; "profile"; "profile+flightrec" ])
    (List.concat_map
       (fun n -> [ (Workload.Chain, "chain", n); (Workload.Star, "star", n) ])
       sizes);
  let slowdown = geomean !ratios in
  Printf.printf "\n  geomean profiled slowdown: %.2fx\n" slowdown;
  if smoke && slowdown > 2. then
    fail "profiled slowdown %.2fx exceeds the 2x smoke gate" slowdown;
  if !failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev !failures);
    if smoke then exit 1
  end

(* ------------------------------------------------------------------ *)
(* MQO  Multi-query optimization (BENCH_mqo.json)                      *)
(* ------------------------------------------------------------------ *)

(* Sharing-ratio arms (0%, ~30%, ~70% of the batch embedding a common
   join/select core) crossed with the strategies: independent
   optimization in the shared memo (off), the Volcano-SH post-pass, and
   Volcano-RU arrival-order reuse. The off arm must be bit-identical to
   N fresh independent optimizations, and no
   strategy may ever raise the batch cost above the independent
   baseline — [smoke] exits nonzero when either property breaks. *)
let mqo_bench ?(smoke = false) ~full () =
  header "MQO  Multi-query optimization (shared memo, materialize/reuse)";
  let count = if smoke then 6 else if full then 16 else 10 in
  let n_relations = if smoke then 5 else 6 in
  let core_relations = 3 in
  let sharings = [ 0.0; 0.3; 0.7 ] in
  Printf.printf
    "Batches of %d queries over one %d-relation catalog; a sharing-ratio arm\n\
     embeds the same selective %d-relation join core in that fraction of the\n\
     batch. Totals are estimated plan costs (seconds); \"saved\" compares the\n\
     batch against optimizing every query independently.\n\n"
    count n_relations core_relations;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let make_batch sharing =
    Workload.generate_overlapping
      (Workload.spec ~n_relations ~seed:(seed_base + 1900) ())
      ~count ~core_relations ~sharing ()
  in
  let render (plan : Relmodel.Optimizer.plan_node option) =
    match plan with
    | None -> "NONE"
    | Some p ->
      Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)
  in
  Printf.printf
    "  sharing | strategy   | wall (ms) | independent | batch    | saved | groups | \
     mat | reuse | off identical\n";
  Printf.printf
    "  --------+------------+-----------+-------------+----------+-------+--------+-\
     ----+-------+--------------\n";
  let rows =
    List.concat_map
      (fun sharing ->
        (* The independent baseline for the bit-identity gate: every
           query optimized on a fresh memo. *)
        let baseline_batch = make_batch sharing in
        let baseline_req = Relmodel.Optimizer.request baseline_batch.batch_catalog in
        let baseline =
          List.map
            (fun q ->
              render (Relmodel.Optimizer.optimize baseline_req q ~required:Phys_prop.any).plan)
            baseline_batch.queries
        in
        List.map
          (fun strategy ->
            (* A fresh batch (same seed, bit-identical queries and
               statistics) per arm: strategies register materialized
               intermediates in the catalog, so arms must not share it. *)
            let b = make_batch sharing in
            let request = Relmodel.Optimizer.request b.batch_catalog in
            let queries = List.map (fun q -> (q, Phys_prop.any)) b.queries in
            let dt, report =
              time_it (fun () -> Mqo.optimize_batch ~strategy request queries)
            in
            let off_identical =
              match strategy with
              | Mqo.Off ->
                let same =
                  List.for_all2
                    (fun base (qr : Mqo.query_result) -> base = render qr.Mqo.plan)
                    baseline report.Mqo.results
                in
                if not same then
                  fail "sharing %.1f: off arm diverges from independent optimization"
                    sharing;
                Some same
              | _ ->
                if report.Mqo.batch_total > report.Mqo.independent_total then
                  fail
                    "sharing %.1f: %s raised batch cost above the independent baseline \
                     (%.6f > %.6f)"
                    sharing
                    (Mqo.strategy_name strategy)
                    report.Mqo.batch_total report.Mqo.independent_total;
                None
            in
            let saved_pct =
              if report.Mqo.independent_total > 0. then
                100.
                *. (report.Mqo.independent_total -. report.Mqo.batch_total)
                /. report.Mqo.independent_total
              else 0.
            in
            Printf.printf
              "  %6.0f%% | %-10s | %9.1f | %11.6f | %8.6f | %4.1f%% | %6d | %3d | %5d \
               | %s\n\
               %!"
              (100. *. sharing)
              (Mqo.strategy_name strategy)
              (dt *. 1000.) report.Mqo.independent_total report.Mqo.batch_total
              saved_pct report.Mqo.shared_groups report.Mqo.materialize_chosen
              report.Mqo.reuse_hits
              (match off_identical with
               | Some b -> string_of_bool b
               | None -> "-");
            ( sharing, strategy, dt *. 1000., report.Mqo.independent_total,
              report.Mqo.batch_total, saved_pct, report.Mqo.shared_groups,
              report.Mqo.materialize_chosen, report.Mqo.reuse_hits, off_identical ))
          [ Mqo.Off; Mqo.Volcano_sh; Mqo.Volcano_ru ])
      sharings
  in
  (* The headline claim: on the sharing arms, both strategies must beat
     independent optimization strictly. Smoke keeps only the safety
     gates (bit-identity, never-regress); the full artifact records the
     improvement for EXPERIMENTS.md to quote. *)
  List.iter
    (fun (sharing, strategy, _, ind, batch, _, _, _, _, _) ->
      if (not smoke) && sharing >= 0.3 && strategy <> Mqo.Off && batch >= ind then
        fail "sharing %.1f: %s failed to improve on the independent baseline" sharing
          (Mqo.strategy_name strategy))
    rows;
  let oc = open_out "BENCH_mqo.json" in
  Printf.fprintf oc
    "{\n\
    \  \"cores\": %d,\n\
    \  \"count\": %d,\n\
    \  \"relations\": %d,\n\
    \  \"core_relations\": %d,\n\
    \  \"all_gates_pass\": %b,\n\
    \  \"runs\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Domain.recommended_domain_count ())
    count n_relations core_relations (!failures = [])
    (String.concat ",\n"
       (List.map
          (fun
            (sharing, strategy, ms, ind, batch, saved, groups, mat, reuse, offid)
          ->
            Printf.sprintf
              "    { \"sharing\": %.2f, \"strategy\": \"%s\", \"wall_ms\": %.2f, \
               \"independent_total\": %.17g, \"batch_total\": %.17g, \
               \"saved_pct\": %.2f, \"mqo_shared_groups\": %d, \
               \"mqo_materialize_chosen\": %d, \"mqo_reuse_hits\": %d%s }"
              sharing
              (Mqo.strategy_name strategy)
              ms ind batch saved groups mat reuse
              (match offid with
               | Some b -> Printf.sprintf ", \"identical_to_independent\": %b" b
               | None -> ""))
          rows));
  close_out oc;
  Printf.printf "\n  wrote BENCH_mqo.json\n%!";
  if !failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev !failures);
    if smoke then exit 1
  end

(* ------------------------------------------------------------------ *)
(* FEEDBACK  Runtime cardinality feedback (BENCH_feedback.json)        *)
(* ------------------------------------------------------------------ *)

(* Skewed-statistics arms: the catalog's claimed row or distinct counts
   are doctored by a known factor (the stored data is untouched), the
   query is optimized against the lie and executed instrumented, the
   feedback loop corrects the statistics, and the query is re-optimized
   and re-executed. Plan quality is judged by measured work (per-operator
   tuple touches from observed cardinalities, plus pages), not estimates.
   Gates: every skewed arm reaches >= 10x estimate error; after
   correction the single-table estimates match reality (q-error <= 2);
   the undercount arm recovers strictly in measured work; the accurate
   arm installs no corrections and keeps its plan; feedback-off
   execution is bit-identical to the plain executor; the escape hatch
   replans mid-query on the undercount arm and never fires on the
   accurate one. Measured work on the other skewed arms is recorded but
   not gated: an overcounted table can push the optimizer into a plan
   that happens to measure cheaper than the estimated-best one — a
   cost-model gap the artifact documents rather than hides. [smoke]
   exits nonzero on any gate failure. *)
let feedback_bench ?(smoke = false) ~full:_ () =
  header "FEEDBACK  Runtime cardinality feedback (drift, correction, recovery)";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let make_catalog () =
    let catalog = Catalog.create () in
    ignore
      (Catalog.add_synthetic catalog ~name:"emp"
         ~columns:
           [
             ("id", Catalog.Serial);
             ("dept_id", Catalog.Uniform_int (0, 119));
             ("salary", Catalog.Uniform_int (30_000, 150_000));
           ]
         ~rows:7_200 ~seed:7 ());
    ignore
      (Catalog.add_synthetic catalog ~name:"dept"
         ~columns:
           [ ("id", Catalog.Serial); ("budget", Catalog.Uniform_int (100_000, 5_000_000)) ]
         ~rows:1_200 ~seed:8 ());
    catalog
  in
  (* Doctor one table's claimed row count (and proportionally cap its
     distinct counts) without touching the data. *)
  let skew_rows catalog table factor =
    let tbl = Catalog.find catalog table in
    let s = tbl.Catalog.stats in
    let rc = Float.max 1. (s.Catalog.Stats.row_count *. factor) in
    let stats =
      {
        Catalog.Stats.row_count = rc;
        columns =
          List.map
            (fun (c, (cs : Catalog.Stats.column_stats)) ->
              ( c,
                {
                  cs with
                  Catalog.Stats.n_distinct =
                    Float.max 1. (Float.min cs.Catalog.Stats.n_distinct rc);
                } ))
            s.Catalog.Stats.columns;
      }
    in
    Catalog.update_stats catalog ~table ~stats ()
  in
  let skew_distinct catalog table column factor =
    let tbl = Catalog.find catalog table in
    let s = tbl.Catalog.stats in
    let stats =
      {
        s with
        Catalog.Stats.columns =
          List.map
            (fun (c, (cs : Catalog.Stats.column_stats)) ->
              if c = column then
                ( c,
                  {
                    cs with
                    Catalog.Stats.n_distinct =
                      Float.max 1. (cs.Catalog.Stats.n_distinct *. factor);
                  } )
              else (c, cs))
            s.Catalog.Stats.columns;
      }
    in
    Catalog.update_stats catalog ~table ~stats ()
  in
  let q_range =
    Logical.select
      Expr.(col "emp.salary" >% int 140_000)
      (Logical.join
         Expr.(col "emp.dept_id" =% col "dept.id")
         (Logical.get "emp") (Logical.get "dept"))
  in
  let q_eq =
    Logical.select
      Expr.(col "emp.dept_id" =% int 3)
      (Logical.join
         Expr.(col "emp.dept_id" =% col "dept.id")
         (Logical.get "emp") (Logical.get "dept"))
  in
  let arms =
    [
      ("row_undercount", (fun c -> skew_rows c "emp" 0.02), q_range, true);
      ("row_overcount", (fun c -> skew_rows c "emp" 50.), q_range, true);
      ("distinct_skew", (fun c -> skew_distinct c "emp" "emp.dept_id" 0.02), q_eq, true);
      ("accurate", (fun _ -> ()), q_range, false);
    ]
  in
  let explain_of plan = Relmodel.Optimizer.explain plan in
  (* Different plans deliver the same bag in different orders; only the
     instrumentation bit-identity gate compares arrays exactly. *)
  let bag tuples =
    let copy = Array.copy tuples in
    Array.sort compare copy;
    copy
  in
  let optimize catalog q =
    match (Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) q
             ~required:Phys_prop.any).plan with
    | Some p -> p
    | None -> failwith "feedback bench: optimizer found no plan"
  in
  (* Only proven drift counts: an early-terminated node's count is a
     lower bound, not a cardinality (drift_nodes at threshold 1 is
     exactly the proven-drift filter). *)
  let proven nodes = Feedback.drift_nodes ~threshold:1. nodes in
  let max_q nodes =
    List.fold_left
      (fun m (n : Feedback.node_obs) -> Float.max m n.Feedback.ratio)
      1. (proven nodes)
  in
  (* Estimate accuracy over the single-table subtrees (scans and
     filters) — the nodes the correction rule can actually fix; join
     estimates are beyond a distinct/range estimator. *)
  let single_table_q nodes =
    List.fold_left
      (fun m (n : Feedback.node_obs) ->
        match n.Feedback.relations with
        | [ _ ] -> Float.max m n.Feedback.ratio
        | _ -> m)
      1. (proven nodes)
  in
  let work catalog plan =
    let phys = Relmodel.Optimizer.to_physical plan in
    match Feedback.observed_run catalog phys with
    | Feedback.Complete (tuples, _, io, nodes) ->
      (Feedback.measured_work phys nodes ~io, nodes, tuples)
    | Feedback.Aborted _ -> assert false (* no escape factor armed *)
  in
  Printf.printf
    "  arm            | max q-error | work before | work after | recovered | \
     corrections | escape replans\n";
  Printf.printf
    "  ---------------+-------------+-------------+------------+-----------+-\
     ------------+---------------\n";
  let rows =
    List.map
      (fun (name, skew, q, expect_drift) ->
        (* Optimize and execute against the lie. *)
        let catalog = make_catalog () in
        skew catalog;
        let before_plan = optimize catalog q in
        let work_before, nodes_before, tuples_before = work catalog before_plan in
        let max_q = max_q nodes_before in
        (* Bit-identity of the instrumented run against the plain executor. *)
        let plain, _, _ =
          Executor.run catalog (Relmodel.Optimizer.to_physical before_plan)
        in
        if plain <> tuples_before then
          fail "%s: instrumented execution is not bit-identical to Executor.run" name;
        (* Close the loop: corrections, then re-optimize and re-execute. *)
        let outcome =
          Feedback.run_plan
            (Relmodel.Optimizer.request catalog)
            q ~required:Phys_prop.any before_plan
        in
        let corrections = List.length outcome.Feedback.report.Feedback.corrections in
        let after_plan = optimize catalog q in
        let work_after, nodes_after, tuples_after = work catalog after_plan in
        if bag tuples_after <> bag tuples_before then
          fail "%s: re-optimized plan changed the query result" name;
        (* Escape hatch on a fresh copy of the same skewed catalog. *)
        let escape_catalog = make_catalog () in
        skew escape_catalog;
        let escape_outcome =
          Feedback.run
            ~config:(Feedback.config ~escape_factor:4. ())
            (Relmodel.Optimizer.request escape_catalog)
            q ~required:Phys_prop.any
        in
        let replans = escape_outcome.Feedback.report.Feedback.replans in
        if bag escape_outcome.Feedback.tuples <> bag tuples_before then
          fail "%s: escape-hatch execution changed the query result" name;
        let recovered = work_after < work_before in
        let st_before = single_table_q nodes_before in
        let st_after = single_table_q nodes_after in
        Printf.printf
          "  %-14s | %10.1fx | %11.0f | %10.0f | %-9b | %11d | %d%s\n%!" name max_q
          work_before work_after recovered corrections replans
          (if escape_outcome.Feedback.report.Feedback.escaped then " (escaped)" else "");
        (name, expect_drift, max_q, work_before, work_after, recovered, corrections,
         escape_outcome.Feedback.report.Feedback.escaped, replans,
         explain_of before_plan = explain_of after_plan, st_before, st_after))
      arms
  in
  List.iter
    (fun (name, expect_drift, max_q, before, after, recovered, corrections, escaped,
          _replans, same_plan, st_before, st_after) ->
      if expect_drift && max_q < 10. then
        fail "%s: expected >= 10x estimate error, measured %.1fx" name max_q;
      if expect_drift && st_after > 2. then
        fail "%s: single-table estimates did not converge (%.1fx -> %.1fx)" name
          st_before st_after;
      match name with
      | "row_undercount" ->
        if not recovered then
          fail "row_undercount: re-optimized plan did not strictly lower measured work \
                (%.0f -> %.0f)"
            before after;
        if not escaped then fail "row_undercount: escape hatch did not fire at 4x"
      | "accurate" ->
        if corrections <> 0 then
          fail "accurate: %d corrections installed on accurate statistics" corrections;
        if not same_plan then fail "accurate: plan changed without statistics drift";
        if escaped then fail "accurate: escape hatch fired on accurate statistics"
      | _ -> ())
    rows;
  let oc = open_out "BENCH_feedback.json" in
  Printf.fprintf oc
    "{\n\
    \  \"cores\": %d,\n\
    \  \"drift_threshold\": 2.0,\n\
    \  \"escape_factor\": 4.0,\n\
    \  \"all_gates_pass\": %b,\n\
    \  \"arms\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Domain.recommended_domain_count ())
    (!failures = [])
    (String.concat ",\n"
       (List.map
          (fun (name, _, max_q, before, after, recovered, corrections, escaped, replans,
                same_plan, st_before, st_after) ->
            Printf.sprintf
              "    { \"arm\": \"%s\", \"max_q_error\": %.2f, \"work_before\": %.17g, \
               \"work_after\": %.17g, \"recovered\": %b, \"corrections\": %d, \
               \"escaped\": %b, \"escape_replans\": %d, \"plan_unchanged\": %b, \
               \"single_table_q_before\": %.2f, \"single_table_q_after\": %.2f }"
              name max_q before after recovered corrections escaped replans same_plan
              st_before st_after)
          rows));
  close_out oc;
  Printf.printf "\n  wrote BENCH_feedback.json\n%!";
  if !failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev !failures);
    if smoke then exit 1
  end

(* ------------------------------------------------------------------ *)
(* SCALEUP  Dynamic promise + anytime search (BENCH_scaleup.json)      *)
(* ------------------------------------------------------------------ *)

(* Plan-cost-vs-budget curves on 6-18-relation join graphs (clique,
   cycle, grid, snowflake; skewed statistics, correlated predicates),
   four arms per cell: static vs dynamic promise ordering, each with
   the guided pruning layer on and off. Every arm of a cell is ONE
   search observed at a ladder of cumulative task budgets (the engine's
   anytime resume semantics), so the whole curve costs only the largest
   budget. Reference cells (<= 10 relations) get an extra effectively
   unbounded rung: there the search completes and the final plan must
   be bit-identical across all four arms — dynamic ordering may only
   change how fast incumbents arrive, never which plan wins. [smoke]
   shrinks the grid for CI and exits nonzero when a reference arm
   diverges or the dynamic arm reaches its first incumbent later than
   static on a clique cell. *)
let scaleup_bench ?(smoke = false) ~full () =
  header "SCALEUP  Dynamic promise ordering + anytime search";
  Printf.printf
    "Per cell (topology x relations) and arm: tasks to first incumbent, tasks to\n\
     an incumbent within 10%% of the cell's best final cost, and the best-so-far\n\
     cost at each budget rung. Reference cells run to completion; their plans\n\
     must be bit-identical across arms.\n\n";
  let cells =
    (* (shape, name, relations, reference). Reference cells are sized so
       the exhaustive search finishes in seconds; ladder cells are the
       10-20-relation regime where only budgeted search is feasible. *)
    if smoke then
      [
        (Workload.Clique, "clique", 6, true);
        (Workload.Cycle, "cycle", 8, true);
        (Workload.Snowflake, "snowflake", 8, true);
        (Workload.Clique, "clique", 12, false);
      ]
    else if full then
      [
        (Workload.Clique, "clique", 8, true);
        (Workload.Cycle, "cycle", 10, true);
        (Workload.Grid, "grid", 9, true);
        (Workload.Snowflake, "snowflake", 10, true);
        (Workload.Clique, "clique", 12, false);
        (Workload.Cycle, "cycle", 14, false);
        (Workload.Grid, "grid", 16, false);
        (Workload.Snowflake, "snowflake", 18, false);
      ]
    else
      [
        (Workload.Clique, "clique", 6, true);
        (Workload.Cycle, "cycle", 8, true);
        (Workload.Grid, "grid", 9, true);
        (Workload.Snowflake, "snowflake", 8, true);
        (Workload.Clique, "clique", 12, false);
      ]
  in
  let ladder =
    if smoke then [ 1_000; 4_000; 16_000; 64_000 ]
    else [ 2_000_000; 4_000_000; 8_000_000; 16_000_000 ]
  in
  (* Cumulative, so this rung just lets reference cells run to the end. *)
  let exhaustive_cap = 1_000_000_000 in
  let arms =
    [
      ("static", Volcano.Search.Static, true);
      ("dynamic", Volcano.Search.Dynamic, true);
      ("static-unguided", Volcano.Search.Static, false);
      ("dynamic-unguided", Volcano.Search.Dynamic, false);
    ]
  in
  let render (result : Relmodel.Optimizer.result) =
    match result.plan with
    | None -> "NONE"
    | Some p ->
      Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let opt_str = function None -> "-" | Some t -> string_of_int t in
  Printf.printf
    "  cell               | arm              | wall (ms) | first inc | within 10%% |   best at | final cost | complete\n";
  Printf.printf
    "  -------------------+------------------+-----------+-----------+------------+-----------+------------+---------\n";
  let cell_rows =
    List.map
      (fun (shape, name, n, reference) ->
        let q =
          Workload.generate
            (Workload.spec ~shape ~skew:0.7 ~correlation:0.85 ~n_relations:n
               ~seed:(seed_base + (1700 * n)) ())
        in
        let budgets = ladder @ if reference then [ exhaustive_cap ] else [] in
        let measured =
          List.map
            (fun (arm, promise, guided) ->
              let request =
                {
                  (Relmodel.Optimizer.request q.catalog) with
                  restore_columns = false;
                  guided_pruning = guided;
                  promise;
                }
              in
              let dt, a =
                time_it (fun () ->
                    Relmodel.Optimizer.optimize_anytime request ~budgets q.logical
                      ~required:Phys_prop.any)
              in
              (arm, promise, guided, dt *. 1000., a))
            arms
        in
        (* The 10% level is relative to the best final cost any arm of
           this cell reached (for reference cells: the optimum). *)
        let final_cost (a : Relmodel.Optimizer.anytime) =
          Option.map (fun p -> Cost.total (Relmodel.Optimizer.plan_cost p))
            a.an_result.plan
        in
        let best_final =
          List.fold_left
            (fun acc (_, _, _, _, a) ->
              match final_cost a with Some c -> Float.min acc c | None -> acc)
            infinity measured
        in
        let threshold = 1.1 *. best_final in
        let baseline = ref "" in
        let arm_rows =
          List.map
            (fun (arm, _, guided, ms, (a : Relmodel.Optimizer.anytime)) ->
              let tasks_to_first =
                match a.an_incumbents with [] -> None | (t, _) :: _ -> Some t
              in
              let tasks_to_10 =
                Option.map fst
                  (List.find_opt
                     (fun (_, c) -> Cost.total c <= threshold)
                     a.an_incumbents)
              in
              (* When the arm's best plan was first in hand — the
                 anytime point after which further tasks only prove
                 optimality or fail to improve. *)
              let tasks_to_best =
                match List.rev a.an_incumbents with
                | (t, _) :: _ -> Some t
                | [] -> None
              in
              if reference then begin
                let rendered = render a.an_result in
                if not a.an_result.complete then
                  fail "%s n=%d: arm %s did not complete its exhaustive rung" name n
                    arm;
                if arm = "static" then baseline := rendered;
                if rendered <> !baseline then
                  fail "%s n=%d: arm %s plan diverges from the static reference" name
                    n arm
              end;
              ignore guided;
              Printf.printf
                "  %9s n=%-7d | %-16s | %9.1f | %9s | %10s | %9s | %10.4g | %b\n%!"
                name n arm ms (opt_str tasks_to_first) (opt_str tasks_to_10)
                (opt_str tasks_to_best)
                (Option.value (final_cost a) ~default:nan)
                a.an_result.complete;
              (arm, ms, tasks_to_first, tasks_to_10, tasks_to_best, a))
            measured
        in
        (* Anytime gate: on clique cells the dynamic guided arm must not
           reach its first incumbent later than the static guided arm. *)
        let first_of arm_name =
          List.find_map
            (fun (arm, _, first, _, _, _) -> if arm = arm_name then first else None)
            arm_rows
        in
        if name = "clique" then begin
          match (first_of "static", first_of "dynamic") with
          | Some s, Some d ->
            if d > s then
              fail "clique n=%d: dynamic first incumbent at %d tasks, static at %d"
                n d s
          | Some s, None ->
            fail "clique n=%d: dynamic arm found no incumbent (static at %d)" n s
          | None, _ -> ()
        end;
        (name, n, reference, arm_rows))
      cells
  in
  (* Headline: the task savings of dynamic ordering — tasks until the
     arm's best plan was in hand. *)
  List.iter
    (fun (name, n, _, arm_rows) ->
      let best arm_name =
        List.find_map
          (fun (arm, _, _, _, tb, _) -> if arm = arm_name then tb else None)
          arm_rows
      in
      match (best "static", best "dynamic") with
      | Some s, Some d ->
        Printf.printf
          "  %s n=%d: tasks until the best plan was found: static %d, dynamic %d \
           (%.2fx)\n"
          name n s d
          (Float.of_int s /. Float.of_int d)
      | _ -> ())
    cell_rows;
  let json_opt = function None -> "null" | Some t -> string_of_int t in
  let oc = open_out "BENCH_scaleup.json" in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"all_reference_cells_identical\": %b,\n  \"cells\": [\n%s\n  ]\n}\n"
    (Domain.recommended_domain_count ())
    (not
       (List.exists
          (fun f ->
            (* only plan-identity failures flip the flag *)
            let has sub s =
              let ls = String.length s and lsub = String.length sub in
              let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
              go 0
            in
            has "diverges" f || has "exhaustive rung" f)
          !failures))
    (String.concat ",\n"
       (List.map
          (fun (name, n, reference, arm_rows) ->
            Printf.sprintf
              "    { \"workload\": \"%s\", \"relations\": %d, \"reference\": %b, \
               \"arms\": [\n%s\n    ] }"
              name n reference
              (String.concat ",\n"
                 (List.map
                    (fun (arm, ms, first, t10, tbest, (a : Relmodel.Optimizer.anytime))
                    ->
                      let s = a.an_result.stats in
                      Printf.sprintf
                        "      { \"arm\": \"%s\", \"wall_ms\": %.2f, \
                         \"tasks_to_first_incumbent\": %s, \
                         \"tasks_to_within_10pct\": %s, \"tasks_to_best\": %s, \
                         \"final_cost\": %s, \
                         \"complete\": %b, \"promise_evals\": %d, \
                         \"moves_reordered\": %d, \"anytime_improvements\": %d, \
                         \"curve\": [ %s ] }"
                        arm ms (json_opt first) (json_opt t10) (json_opt tbest)
                        (match a.an_result.plan with
                         | Some p ->
                           Printf.sprintf "%.17g"
                             (Cost.total (Relmodel.Optimizer.plan_cost p))
                         | None -> "null")
                        a.an_result.complete s.promise_evals s.moves_reordered
                        s.anytime_improvements
                        (String.concat ", "
                           (List.map
                              (fun (p : Relmodel.Optimizer.anytime_point) ->
                                Printf.sprintf
                                  "{ \"budget\": %d, \"tasks\": %d, \"cost\": %s, \
                                   \"complete\": %b }"
                                  p.at_budget p.at_tasks
                                  (match p.at_cost with
                                   | Some c -> Printf.sprintf "%.17g" (Cost.total c)
                                   | None -> "null")
                                  p.at_complete)
                              a.an_points)))
                    arm_rows)))
          cell_rows));
  close_out oc;
  Printf.printf "\n  wrote BENCH_scaleup.json\n%!";
  if !failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") (List.rev !failures);
    if smoke then exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment.            *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "MICRO  Bechamel micro-benchmarks (one test per experiment)";
  let open Bechamel in
  let query n = Workload.generate (Workload.spec ~n_relations:n ~seed:77 ()) in
  let q4 = query 4 and q6 = query 6 in
  let ord_required (q : Workload.query) =
    Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ])
  in
  let oo_store : Oomodel.Oo_algebra.store =
    [
      {
        cname = "emp";
        extent_size = 10_000.;
        object_bytes = 120;
        references = [ ("dept", "dept") ];
      };
      { cname = "dept"; extent_size = 100.; object_bytes = 64; references = [] };
    ]
  in
  let oo_query =
    Volcano.Tree.node
      (Oomodel.Oo_algebra.O_select ([ "dept" ], 0.1))
      [ Volcano.Tree.node (Oomodel.Oo_algebra.Extent "emp") [] ]
  in
  let tests =
    [
      Test.make ~name:"f4-volcano-4rel"
        (Staged.stage (fun () -> volcano_optimize q4 ~required:Phys_prop.any));
      Test.make ~name:"f4-volcano-6rel"
        (Staged.stage (fun () -> volcano_optimize q6 ~required:Phys_prop.any));
      Test.make ~name:"f4-exodus-4rel"
        (Staged.stage (fun () ->
             Exodus.optimize ~catalog:q4.catalog ~max_nodes:40_000 q4.logical
               ~required:Phys_prop.any));
      Test.make ~name:"a2-no-pruning-4rel"
        (Staged.stage (fun () -> volcano_optimize ~pruning:false q4 ~required:Phys_prop.any));
      Test.make ~name:"a3-orderby-4rel"
        (Staged.stage (fun () -> volcano_optimize q4 ~required:(ord_required q4)));
      Test.make ~name:"a4-leftdeep-6rel"
        (Staged.stage (fun () ->
             volcano_optimize
               ~flags:{ Relmodel.Rel_model.default_flags with left_deep_only = true }
               q6 ~required:Phys_prop.any));
      Test.make ~name:"oo-assembledness"
        (Staged.stage (fun () ->
             Oomodel.Oo_model.optimize ~store:oo_store oo_query
               ~required:Oomodel.Oo_algebra.Path_set.empty));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.2f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "full" args in
  let smoke = List.mem "smoke" args in
  let args = List.filter (fun a -> a <> "full" && a <> "smoke") args in
  let all = args = [] || args = [ "all" ] in
  let want name = all || List.mem name args in
  let t0 = Unix.gettimeofday () in
  if want "f4" then f4 ~full ();
  if want "a1" then a1 ~full ();
  if want "a2" then a2 ~full ();
  if want "a3" then a3 ~full ();
  if want "a4" then a4 ~full ();
  if want "a5" then a5 ~full ();
  if want "a6" then a6 ~full ();
  if want "a7" then a7 ~full ();
  if want "a8" then a8 ~full ();
  if want "a9" then a9 ~full ();
  if want "a10" then a10 ~full ();
  if want "plansrv" then plansrv_bench ~full ();
  if want "pruning" then pruning_bench ~smoke ~full ();
  if want "obs" then obs_bench ~smoke ~full ();
  if want "obsprof" then obsprof_bench ~smoke ~full ();
  if want "mqo" then mqo_bench ~smoke ~full ();
  if want "feedback" then feedback_bench ~smoke ~full ();
  if want "scaleup" then scaleup_bench ~smoke ~full ();
  if List.mem "micro" args then micro ();
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
