(* Tests of the plan-space scale-up machinery: dynamic promise
   ordering (must never change the found plan, only the order moves
   are pursued in) and the anytime budget ladder. *)

open Relalg

(* Render a result so "bit-identical" means operators, properties, and
   per-node costs down to the last bit. *)
let render (result : Relmodel.Optimizer.result) =
  match result.plan with
  | None -> "NONE"
  | Some p ->
    Printf.sprintf "%s|%.17g" (Relmodel.Optimizer.explain p) (Cost.total p.cost)

let optimize_arm q ~required ~promise ~guided =
  let request =
    {
      (Relmodel.Optimizer.request q.Workload.catalog) with
      restore_columns = false;
      guided_pruning = guided;
      promise;
    }
  in
  Relmodel.Optimizer.optimize request q.Workload.logical ~required

(* The tentpole invariant: under unbounded budgets the static and
   dynamic promise orders find bit-identical plans — dynamic ordering
   may only change how fast the winner is reached, never which plan
   wins (the cost-tie-break in [consider] keys on the static rank both
   arms compute). Exercised across random topologies, skew,
   correlation, and both pruning arms. *)
let qcheck_static_dynamic_identical =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 5 in
      let* shape = oneofl Workload.all_shapes in
      let* seed = int_range 0 10_000 in
      let* skew = oneofl [ 0.; 0.5; 1. ] in
      let* correlation = oneofl [ None; Some 0.; Some 0.8; Some 1. ] in
      let* sorted = bool in
      return (n, shape, seed, skew, correlation, sorted))
  in
  let print (n, shape, seed, skew, correlation, sorted) =
    Printf.sprintf "n=%d shape=%s seed=%d skew=%g corr=%s sorted=%b" n
      (Workload.shape_name shape) seed skew
      (match correlation with None -> "-" | Some c -> string_of_float c)
      sorted
  in
  Helpers.qcheck_case ~count:12 "static and dynamic promise find identical plans"
    (QCheck.make ~print gen)
    (fun (n, shape, seed, skew, correlation, sorted) ->
      let q =
        Workload.generate
          (Workload.spec ~shape ~skew ?correlation ~n_relations:n ~seed ())
      in
      let required =
        if sorted then Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ])
        else Phys_prop.any
      in
      let reference =
        render (optimize_arm q ~required ~promise:Volcano.Search.Static ~guided:true)
      in
      List.for_all
        (fun (promise, guided) ->
          render (optimize_arm q ~required ~promise ~guided) = reference)
        [
          (Volcano.Search.Dynamic, true);
          (Volcano.Search.Static, false);
          (Volcano.Search.Dynamic, false);
        ])

(* Cases with two equal-cost plans where dynamic order finds the
   higher-ranked one first. The lower-ranked one must then survive its
   input limits despite float rounding in the limit arithmetic, or the
   arms keep different plans. (n, shape, seed, skew, correlation,
   sorted), from the generator above. *)
let test_pinned_cost_ties () =
  List.iter
    (fun (n, shape, seed, skew, correlation, sorted) ->
      let q =
        Workload.generate
          (Workload.spec ~shape ~skew ?correlation ~n_relations:n ~seed ())
      in
      let required =
        if sorted then Phys_prop.sorted (Sort_order.asc [ List.hd q.relations ^ ".jk1" ])
        else Phys_prop.any
      in
      let render_arm promise guided = render (optimize_arm q ~required ~promise ~guided) in
      let reference = render_arm Volcano.Search.Static true in
      List.iter
        (fun (promise, guided, arm) ->
          Alcotest.(check string)
            (Printf.sprintf "%s seed=%d: %s = static" (Workload.shape_name shape) seed arm)
            reference (render_arm promise guided))
        [
          (Volcano.Search.Dynamic, true, "dynamic");
          (Volcano.Search.Static, false, "static unguided");
          (Volcano.Search.Dynamic, false, "dynamic unguided");
        ])
    [
      (5, Workload.Snowflake, 7226, 0.5, Some 1.0, false);
      (5, Workload.Grid, 722, 1., None, true);
      (5, Workload.Cycle, 4113, 0.5, Some 1.0, true);
      (5, Workload.Clique, 3808, 0., Some 0.0, true);
      (3, Workload.Random_acyclic, 5752, 1., Some 1.0, false);
      (5, Workload.Clique, 8324, 1., Some 0.0, true);
      (3, Workload.Star, 4271, 1., Some 0.0, false);
      (4, Workload.Grid, 5929, 0., None, true);
      (3, Workload.Cycle, 6662, 0., Some 0.0, true);
    ]

let anytime_of q ~promise ~budgets =
  let request =
    {
      (Relmodel.Optimizer.request q.Workload.catalog) with
      restore_columns = false;
      promise;
    }
  in
  Relmodel.Optimizer.optimize_anytime request ~budgets q.Workload.logical
    ~required:Phys_prop.any

(* Anytime monotonicity: along the budget ladder, best-so-far never
   appears and then disappears, never gets worse, tasks never run
   backwards, and completeness is absorbing with a stable final cost. *)
let test_anytime_monotone () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Cycle ~skew:0.7 ~correlation:0.85
         ~n_relations:7 ~seed:21 ())
  in
  List.iter
    (fun promise ->
      let a =
        anytime_of q ~promise
          ~budgets:[ 100; 500; 2_000; 10_000; 50_000; 1_000_000_000 ]
      in
      Alcotest.(check int) "one point per budget" 6 (List.length a.an_points);
      let rec walk (prev : Relmodel.Optimizer.anytime_point option) = function
        | [] -> ()
        | (p : Relmodel.Optimizer.anytime_point) :: rest ->
          (match prev with
           | None -> ()
           | Some pr ->
             Alcotest.(check bool) "budgets ascend" true (p.at_budget > pr.at_budget);
             Alcotest.(check bool) "tasks never run backwards" true
               (p.at_tasks >= pr.at_tasks);
             (match (pr.at_cost, p.at_cost) with
              | Some c0, Some c1 ->
                Alcotest.(check bool) "best-so-far never worsens" true
                  (Cost.total c1 <= Cost.total c0)
              | Some _, None -> Alcotest.fail "best-so-far disappeared"
              | None, _ -> ());
             if pr.at_complete then begin
               Alcotest.(check bool) "completeness is absorbing" true p.at_complete;
               match (pr.at_cost, p.at_cost) with
               | Some c0, Some c1 ->
                 Alcotest.(check (float 0.)) "final cost stable" (Cost.total c0)
                   (Cost.total c1)
               | _ -> Alcotest.fail "complete rung without a plan"
             end);
          walk (Some p) rest
      in
      walk None a.an_points;
      let last = List.nth a.an_points (List.length a.an_points - 1) in
      Alcotest.(check bool) "unbounded rung completes" true last.at_complete;
      (* The incumbent log: tasks ascend, costs strictly improve, and
         the last incumbent is the final plan's cost. *)
      let rec check_incumbents = function
        | (t0, c0) :: ((t1, c1) :: _ as rest) ->
          Alcotest.(check bool) "incumbent tasks ascend" true (t1 >= t0);
          Alcotest.(check bool) "incumbent costs strictly improve" true
            (Cost.total c1 < Cost.total c0);
          check_incumbents rest
        | _ -> ()
      in
      check_incumbents a.an_incumbents;
      match (a.an_result.plan, List.rev a.an_incumbents) with
      | Some p, (_, c) :: _ ->
        Alcotest.(check (float 0.)) "last incumbent is the final cost"
          (Cost.total p.cost) (Cost.total c)
      | Some _, [] -> Alcotest.fail "plan found but no incumbent recorded"
      | None, _ -> Alcotest.fail "no plan on the unbounded rung")
    [ Volcano.Search.Static; Volcano.Search.Dynamic ]

(* The ladder's final state must agree with a plain one-shot
   optimization of the same request. *)
let test_anytime_matches_one_shot () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Clique ~skew:0.5 ~n_relations:5 ~seed:33 ())
  in
  let a = anytime_of q ~promise:Volcano.Search.Dynamic ~budgets:[ 1_000_000_000 ] in
  let one_shot =
    optimize_arm q ~required:Phys_prop.any ~promise:Volcano.Search.Dynamic
      ~guided:true
  in
  Alcotest.(check bool) "both complete" true (a.an_result.complete && one_shot.complete);
  Alcotest.(check string) "identical plan" (render one_shot) (render a.an_result)

(* The new effort counters only move when their feature is on. *)
let test_promise_counters () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Star ~n_relations:5 ~seed:44 ())
  in
  let stat promise =
    (optimize_arm q ~required:Phys_prop.any ~promise ~guided:true).stats
  in
  let st = stat Volcano.Search.Static in
  Alcotest.(check int) "static: no promise evals" 0 st.promise_evals;
  Alcotest.(check int) "static: no reorders" 0 st.moves_reordered;
  let dy = stat Volcano.Search.Dynamic in
  Alcotest.(check bool) "dynamic: promise evaluated" true (dy.promise_evals > 0);
  Alcotest.(check bool) "dynamic: anytime improvements tracked" true
    (dy.anytime_improvements >= 0)

let suite =
  [
    qcheck_static_dynamic_identical;
    Alcotest.test_case "static and dynamic agree on pinned cost ties" `Quick
      test_pinned_cost_ties;
    Alcotest.test_case "anytime monotone" `Quick test_anytime_monotone;
    Alcotest.test_case "anytime matches one-shot" `Quick test_anytime_matches_one_shot;
    Alcotest.test_case "promise counters" `Quick test_promise_counters;
  ]
