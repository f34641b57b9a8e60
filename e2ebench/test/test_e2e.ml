(* Tests of the benchmark's own checks: each must reject a corrupted
   output, the reference evaluator must agree with [Executor.naive], and
   a plan that ties the optimum on cost but differs in structure must
   pass. *)

open Relalg
open E2e

let ok = function Ok () -> true | Error _ -> false

let check_ok what r =
  match r with
  | Ok () -> ()
  | Error why -> Alcotest.failf "%s: %s" what why

let check_rejects what r = Alcotest.(check bool) what false (ok r)

(* A small catalog shaped like the benchmark's: 12 relations, 60-200
   rows, so [Executor.naive]'s nested loops stay quick. *)
let small = lazy (
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Chain ~n_relations:12 ~min_rows:60 ~max_rows:200 ~skew:0.4
         ~seed:3 ())
  in
  (q.Workload.catalog, Array.of_list q.Workload.relations))

let pool ~seed ~count =
  let catalog, tables = Lazy.force small in
  (catalog, Sqlgen.pool ~seed ~tables ~sizes:[| 2; 3; 4 |] ~count)

let unordered (e : Checks.expected) = { e with order = [] }

let naive catalog (q : Sqlgen.query) =
  let tuples, schema = Executor.naive catalog (Sqlgen.pushed q) in
  match q.kind with
  | Sqlgen.Distinct _ -> (Executor.dedup tuples, schema)
  | _ -> (tuples, schema)

(* SQL text through parse, optimize, extract and execute, as run_sql
   does. *)
let execute catalog (q : Sqlgen.query) =
  let stmt = Sqlfront.parse catalog q.sql in
  let r = Relmodel.Optimizer.optimize (Relmodel.Optimizer.request catalog) stmt.logical ~required:stmt.required in
  let tuples, schema, _ = Executor.run catalog (Relmodel.Optimizer.to_physical (Option.get r.plan)) in
  (tuples, schema)

let test_reference_matches_naive () =
  let catalog, queries = pool ~seed:11 ~count:40 in
  Array.iter
    (fun (q : Sqlgen.query) ->
      let exp = Reference.eval catalog q in
      check_ok ("reference vs naive: " ^ q.sql) (Checks.rows (unordered exp) (naive catalog q));
      check_ok ("reference vs executed plan: " ^ q.sql) (Checks.rows exp (execute catalog q)))
    queries;
  let kinds = Array.map (fun (q : Sqlgen.query) -> Sqlgen.kind_name q.kind) queries in
  List.iter
    (fun k -> Alcotest.(check bool) ("pool has " ^ k) true (Array.mem k kinds))
    [ "plain"; "order_by"; "group_by"; "distinct" ]

let find_query kind_name =
  let catalog, queries = pool ~seed:12 ~count:40 in
  let q =
    List.find
      (fun (q : Sqlgen.query) ->
        let e : Checks.expected = Reference.eval catalog q in
        String.equal (Sqlgen.kind_name q.kind) kind_name && e.bag.n > 2)
      (Array.to_list queries)
  in
  (catalog, q, Reference.eval catalog q, execute catalog q)

let test_rows_reject_corruption () =
  let _, _, exp, (tuples, schema) = find_query "plain" in
  check_ok "the genuine rows pass" (Checks.rows exp (tuples, schema));
  let changed = Array.map Array.copy tuples in
  changed.(0).(0) <- (match changed.(0).(0) with Value.Int v -> Value.Int (v + 1) | _ -> Value.Int 0);
  check_rejects "a changed value" (Checks.rows exp (changed, schema));
  check_rejects "a dropped row" (Checks.rows exp (Array.sub tuples 1 (Array.length tuples - 1), schema));
  check_rejects "a repeated row" (Checks.rows exp (Array.append tuples [| tuples.(0) |], schema));
  check_rejects "a dropped column"
    (Checks.rows exp (Array.map (fun t -> Array.sub t 1 (Array.length t - 1)) tuples, Array.sub schema 1 (Array.length schema - 1)))

let test_rows_reject_order_and_duplicates () =
  let _, _, exp, (tuples, schema) = find_query "order_by" in
  check_ok "sorted rows pass" (Checks.rows exp (tuples, schema));
  let n = Array.length tuples in
  check_rejects "rows in reverse order"
    (Checks.rows exp (Array.init n (fun i -> tuples.(n - 1 - i)), schema));
  let _, _, exp, (tuples, schema) = find_query "distinct" in
  check_ok "distinct rows pass" (Checks.rows exp (tuples, schema));
  check_rejects "a duplicate under DISTINCT"
    (Checks.rows exp (Array.append tuples [| tuples.(0) |], schema))

(* A paper join query and its optimum plan. *)
let join_case () =
  let q = Workload.generate (Workload.spec ~shape:Workload.Chain ~n_relations:4 ~seed:5 ()) in
  let req = { (Relmodel.Optimizer.request q.catalog) with restore_columns = false } in
  let node = Option.get (Relmodel.Optimizer.optimize req q.logical ~required:Phys_prop.any).plan in
  (q, req, node, Relmodel.Optimizer.to_physical node)

let plan_check (q : Workload.query) (req : Relmodel.Optimizer.request) ~reported p =
  Checks.plan ~catalog:q.catalog ~relations:q.relations ~required:Phys_prop.any
    ~recost:(req.params, reported) p

let rec is_join (p : Physical.plan) =
  match p.alg with
  | Physical.Hash_join _ | Physical.Merge_join _ | Physical.Nested_loop_join _
  | Physical.Hash_join_project _ -> true
  | Physical.Sort _ | Physical.Filter _ | Physical.Project_cols _ -> List.exists is_join p.children
  | _ -> false

(* Replace the topmost join by its left input: one side's scans vanish. *)
let rec drop_side (p : Physical.plan) =
  match p.alg, p.children with
  | (Physical.Hash_join _ | Physical.Merge_join _ | Physical.Nested_loop_join _
    | Physical.Hash_join_project _), l :: _ -> l
  | _, children -> { p with children = List.map (fun c -> if is_join c then drop_side c else c) children }

(* Turn the topmost hash or merge join into a nested-loop join. *)
let rec to_nested_loop (p : Physical.plan) =
  match p.alg with
  | Physical.Hash_join (_, pred) | Physical.Merge_join (_, pred) ->
    { p with alg = Physical.Nested_loop_join pred }
  | _ -> { p with children = List.map to_nested_loop p.children }

let cost (q : Workload.query) (req : Relmodel.Optimizer.request) p =
  Cost.total (Relmodel.Plan_cost.estimate q.catalog ~params:req.params p)

let test_plan_checks () =
  let q, req, node, p = join_case () in
  let reported = Cost.total node.cost in
  check_ok "the optimum passes" (plan_check q req ~reported p);
  (* Without re-costing, so that only the scan check can reject it. *)
  check_rejects "a dropped scan"
    (Checks.plan ~catalog:q.catalog ~relations:q.relations ~required:Phys_prop.any (drop_side p));
  let worse = to_nested_loop p in
  Alcotest.(check bool) "the nested-loop plan costs more" true (cost q req worse > reported);
  check_rejects "a costlier plan reported at the optimum's cost"
    (plan_check q req ~reported worse);
  check_rejects "a costlier plan reported at its own cost"
    (Checks.optimal ~reference:reported ~reported:(cost q req worse))

let rec strip (drop : Physical.alg -> bool) (p : Physical.plan) =
  match p.children with
  | [ c ] when drop p.alg -> strip drop c
  | children -> { p with children = List.map (strip drop) children }

let rec has (f : Physical.alg -> bool) (p : Physical.plan) = f p.alg || List.exists (has f) p.children

(* Plans for SQL that requires an order or distinct rows: the checks
   read what the operators deliver, so a plan without the enforcer the
   optimizer put in is rejected whatever the optimizer records. *)
let test_plan_properties () =
  let catalog, queries = pool ~seed:14 ~count:40 in
  let req = Relmodel.Optimizer.request catalog in
  let stripped = ref 0 in
  Array.iter
    (fun (q : Sqlgen.query) ->
      let stmt = Sqlfront.parse catalog q.sql in
      let p =
        Relmodel.Optimizer.to_physical
          (Option.get (Relmodel.Optimizer.optimize req stmt.logical ~required:stmt.required).plan)
      in
      let check p = Checks.plan ~catalog ~relations:(Array.to_list q.rels) ~required:stmt.required p in
      check_ok ("the optimum passes: " ^ q.sql) (check p);
      let enforcer = function
        | Physical.Sort _ | Physical.Sort_dedup _ | Physical.Hash_dedup -> true
        | _ -> false
      in
      if stmt.required <> Phys_prop.any && has enforcer p then begin
        incr stripped;
        check_rejects ("without its sort or dedup: " ^ q.sql) (check (strip enforcer p))
      end)
    queries;
  Alcotest.(check bool) "some plans had an enforcer to strip" true (!stripped >= 3)

(* Two relations with the same rows: joining them either way round costs
   the same, so the mirrored plan ties the optimum. *)
let test_tie_passes () =
  let catalog = Catalog.create () in
  let schema = [| Schema.attribute "k" Schema.TInt; Schema.attribute "v" Schema.TInt |] in
  let rows = Array.init 500 (fun i -> [| Value.Int (i mod 50); Value.Int i |]) in
  ignore (Catalog.add catalog ~name:"a" ~schema rows);
  ignore (Catalog.add catalog ~name:"b" ~schema rows);
  let query = Logical.join Expr.(col "a.k" =% col "b.k") (Logical.get "a") (Logical.get "b") in
  let req = { (Relmodel.Optimizer.request catalog) with restore_columns = false } in
  let node = Option.get (Relmodel.Optimizer.optimize req query ~required:Phys_prop.any).plan in
  let p = Relmodel.Optimizer.to_physical node in
  let rec mirror (p : Physical.plan) =
    let swap = List.map (fun (l, r) -> (r, l)) in
    match p.alg, p.children with
    | Physical.Hash_join (keys, pred), [ l; r ] -> { Physical.alg = Hash_join (swap keys, pred); children = [ r; l ] }
    | Physical.Merge_join (keys, pred), [ l; r ] -> { alg = Merge_join (swap keys, pred); children = [ r; l ] }
    | Physical.Nested_loop_join pred, [ l; r ] -> { alg = Nested_loop_join pred; children = [ r; l ] }
    | _, children -> { p with children = List.map mirror children }
  in
  let alt = mirror p in
  Alcotest.(check bool) "the mirrored plan differs" false (alt = p);
  let reference = Cost.total node.cost in
  let alt_cost = Cost.total (Relmodel.Plan_cost.estimate catalog ~params:req.params alt) in
  check_ok "the mirrored plan ties the optimum" (Checks.optimal ~reference ~reported:alt_cost);
  check_ok "the mirrored plan passes the plan checks"
    (Checks.plan ~catalog ~relations:[ "a"; "b" ] ~required:Phys_prop.any
       ~recost:(req.params, alt_cost) alt)

let test_sql_pool () =
  let catalog, queries = pool ~seed:13 ~count:30 in
  let texts = Array.map (fun (q : Sqlgen.query) -> q.sql) queries in
  Alcotest.(check int) "distinct texts" 30 (List.length (List.sort_uniq compare (Array.to_list texts)));
  let again = snd (pool ~seed:13 ~count:30) in
  Alcotest.(check bool) "same seed, same pool" true (Array.map (fun (q : Sqlgen.query) -> q.sql) again = texts);
  Array.iter (fun sql -> ignore (Sqlfront.parse catalog sql)) texts

let () =
  Alcotest.run "e2ebench"
    [
      ( "reference",
        [
          Alcotest.test_case "agrees with Executor.naive" `Quick test_reference_matches_naive;
          Alcotest.test_case "seeded SQL pool" `Quick test_sql_pool;
        ] );
      ( "checks",
        [
          Alcotest.test_case "rows reject corruption" `Quick test_rows_reject_corruption;
          Alcotest.test_case "rows reject disorder and duplicates" `Quick
            test_rows_reject_order_and_duplicates;
          Alcotest.test_case "plans reject dropped scans and costlier plans" `Quick test_plan_checks;
          Alcotest.test_case "plans reject an undelivered order or distinct" `Quick
            test_plan_properties;
          Alcotest.test_case "a tie on cost passes" `Quick test_tie_passes;
        ] );
    ]
