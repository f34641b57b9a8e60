type task_kind =
  | Optimize_group
  | Explore_group
  | Optimize_mexpr
  | Apply_transform
  | Optimize_inputs
  | Apply_enforcer

let task_kinds =
  [
    Optimize_group;
    Explore_group;
    Optimize_mexpr;
    Apply_transform;
    Optimize_inputs;
    Apply_enforcer;
  ]

let task_kind_index = function
  | Optimize_group -> 0
  | Explore_group -> 1
  | Optimize_mexpr -> 2
  | Apply_transform -> 3
  | Optimize_inputs -> 4
  | Apply_enforcer -> 5

let task_kind_name = function
  | Optimize_group -> "optimize-group"
  | Explore_group -> "explore-group"
  | Optimize_mexpr -> "optimize-mexpr"
  | Apply_transform -> "apply-transform"
  | Optimize_inputs -> "optimize-inputs"
  | Apply_enforcer -> "apply-enforcer"

type t = {
  mutable goals : int;
  mutable goal_hits : int;
  mutable goal_misses : int;
  mutable groups_created : int;
  mutable mexprs_created : int;
  mutable rule_firings : int;
  mutable plans_costed : int;
  mutable enforcer_moves : int;
  mutable failures : int;
  mutable pruned : int;
  mutable merges : int;
  mutable tasks : int;
  tasks_by_kind : int array;  (** indexed by [task_kind_index] *)
  mutable stack_hwm : int;
  mutable goals_pruned_lb : int;
      (** goals killed before pursuit because the group's cost lower
          bound already exceeded the goal's limit (guided pruning) *)
  mutable input_limits_tightened : int;
      (** input optimizations whose Figure-2 limit was tightened by
          subtracting sibling lower bounds (guided pruning) *)
  mutable memo_fastpath_hits : int;
      (** goal-key intern lookups answered by the memo's hash-consing
          table (no structural hashing or key allocation) *)
  mutable mqo_shared_groups : int;
      (** logical subexpressions that occurred in two or more queries of
          a batch (multi-query optimization) *)
  mutable mqo_materialize_chosen : int;
      (** shared subexpressions the batch search decided to materialize
          once and reuse *)
  mutable mqo_reuse_hits : int;
      (** consumer sites rewritten to read a materialized shared result
          instead of recomputing it *)
  mutable feedback_runs : int;
      (** instrumented executions completed by the feedback loop *)
  mutable feedback_nodes_observed : int;
      (** plan nodes whose actual output cardinality was recorded *)
  mutable feedback_drift_nodes : int;
      (** observed nodes whose q-error reached the drift threshold *)
  mutable feedback_corrections : int;
      (** per-table statistics corrections installed in the catalog *)
  mutable feedback_escapes : int;
      (** mid-query escape-hatch aborts (observed > k x estimated) *)
  mutable feedback_replans : int;
      (** re-optimizations triggered by the feedback loop *)
  mutable promise_evals : int;
      (** moves scored by the model's promise estimate when a goal's
          move list was assembled (dynamic promise ordering) *)
  mutable moves_reordered : int;
      (** moves whose pursuit position changed when the dynamic promise
          ordering disagreed with the static rule-promise order *)
  mutable anytime_improvements : int;
      (** root-goal incumbent replacements: the best-so-far plan of a
          run's root goal was improved after a first plan existed *)
}

let create () =
  {
    goals = 0;
    goal_hits = 0;
    goal_misses = 0;
    groups_created = 0;
    mexprs_created = 0;
    rule_firings = 0;
    plans_costed = 0;
    enforcer_moves = 0;
    failures = 0;
    pruned = 0;
    merges = 0;
    tasks = 0;
    tasks_by_kind = Array.make (List.length task_kinds) 0;
    stack_hwm = 0;
    goals_pruned_lb = 0;
    input_limits_tightened = 0;
    memo_fastpath_hits = 0;
    mqo_shared_groups = 0;
    mqo_materialize_chosen = 0;
    mqo_reuse_hits = 0;
    feedback_runs = 0;
    feedback_nodes_observed = 0;
    feedback_drift_nodes = 0;
    feedback_corrections = 0;
    feedback_escapes = 0;
    feedback_replans = 0;
    promise_evals = 0;
    moves_reordered = 0;
    anytime_improvements = 0;
  }

let reset t =
  t.goals <- 0;
  t.goal_hits <- 0;
  t.goal_misses <- 0;
  t.groups_created <- 0;
  t.mexprs_created <- 0;
  t.rule_firings <- 0;
  t.plans_costed <- 0;
  t.enforcer_moves <- 0;
  t.failures <- 0;
  t.pruned <- 0;
  t.merges <- 0;
  t.tasks <- 0;
  Array.fill t.tasks_by_kind 0 (Array.length t.tasks_by_kind) 0;
  t.stack_hwm <- 0;
  t.goals_pruned_lb <- 0;
  t.input_limits_tightened <- 0;
  t.memo_fastpath_hits <- 0;
  t.mqo_shared_groups <- 0;
  t.mqo_materialize_chosen <- 0;
  t.mqo_reuse_hits <- 0;
  t.feedback_runs <- 0;
  t.feedback_nodes_observed <- 0;
  t.feedback_drift_nodes <- 0;
  t.feedback_corrections <- 0;
  t.feedback_escapes <- 0;
  t.feedback_replans <- 0;
  t.promise_evals <- 0;
  t.moves_reordered <- 0;
  t.anytime_improvements <- 0

let copy t = { t with tasks_by_kind = Array.copy t.tasks_by_kind }

let merge ~into t =
  into.goals <- into.goals + t.goals;
  into.goal_hits <- into.goal_hits + t.goal_hits;
  into.goal_misses <- into.goal_misses + t.goal_misses;
  into.groups_created <- into.groups_created + t.groups_created;
  into.mexprs_created <- into.mexprs_created + t.mexprs_created;
  into.rule_firings <- into.rule_firings + t.rule_firings;
  into.plans_costed <- into.plans_costed + t.plans_costed;
  into.enforcer_moves <- into.enforcer_moves + t.enforcer_moves;
  into.failures <- into.failures + t.failures;
  into.pruned <- into.pruned + t.pruned;
  into.merges <- into.merges + t.merges;
  into.tasks <- into.tasks + t.tasks;
  Array.iteri (fun i n -> into.tasks_by_kind.(i) <- into.tasks_by_kind.(i) + n) t.tasks_by_kind;
  into.goals_pruned_lb <- into.goals_pruned_lb + t.goals_pruned_lb;
  into.input_limits_tightened <- into.input_limits_tightened + t.input_limits_tightened;
  into.memo_fastpath_hits <- into.memo_fastpath_hits + t.memo_fastpath_hits;
  into.mqo_shared_groups <- into.mqo_shared_groups + t.mqo_shared_groups;
  into.mqo_materialize_chosen <- into.mqo_materialize_chosen + t.mqo_materialize_chosen;
  into.mqo_reuse_hits <- into.mqo_reuse_hits + t.mqo_reuse_hits;
  into.feedback_runs <- into.feedback_runs + t.feedback_runs;
  into.feedback_nodes_observed <- into.feedback_nodes_observed + t.feedback_nodes_observed;
  into.feedback_drift_nodes <- into.feedback_drift_nodes + t.feedback_drift_nodes;
  into.feedback_corrections <- into.feedback_corrections + t.feedback_corrections;
  into.feedback_escapes <- into.feedback_escapes + t.feedback_escapes;
  into.feedback_replans <- into.feedback_replans + t.feedback_replans;
  into.promise_evals <- into.promise_evals + t.promise_evals;
  into.moves_reordered <- into.moves_reordered + t.moves_reordered;
  into.anytime_improvements <- into.anytime_improvements + t.anytime_improvements;
  if t.stack_hwm > into.stack_hwm then into.stack_hwm <- t.stack_hwm

let diff ~since t =
  let d = copy t in
  d.goals <- t.goals - since.goals;
  d.goal_hits <- t.goal_hits - since.goal_hits;
  d.goal_misses <- t.goal_misses - since.goal_misses;
  d.groups_created <- t.groups_created - since.groups_created;
  d.mexprs_created <- t.mexprs_created - since.mexprs_created;
  d.rule_firings <- t.rule_firings - since.rule_firings;
  d.plans_costed <- t.plans_costed - since.plans_costed;
  d.enforcer_moves <- t.enforcer_moves - since.enforcer_moves;
  d.failures <- t.failures - since.failures;
  d.pruned <- t.pruned - since.pruned;
  d.merges <- t.merges - since.merges;
  d.tasks <- t.tasks - since.tasks;
  Array.iteri (fun i n -> d.tasks_by_kind.(i) <- n - since.tasks_by_kind.(i)) t.tasks_by_kind;
  d.goals_pruned_lb <- t.goals_pruned_lb - since.goals_pruned_lb;
  d.input_limits_tightened <- t.input_limits_tightened - since.input_limits_tightened;
  d.memo_fastpath_hits <- t.memo_fastpath_hits - since.memo_fastpath_hits;
  d.mqo_shared_groups <- t.mqo_shared_groups - since.mqo_shared_groups;
  d.mqo_materialize_chosen <- t.mqo_materialize_chosen - since.mqo_materialize_chosen;
  d.mqo_reuse_hits <- t.mqo_reuse_hits - since.mqo_reuse_hits;
  d.feedback_runs <- t.feedback_runs - since.feedback_runs;
  d.feedback_nodes_observed <- t.feedback_nodes_observed - since.feedback_nodes_observed;
  d.feedback_drift_nodes <- t.feedback_drift_nodes - since.feedback_drift_nodes;
  d.feedback_corrections <- t.feedback_corrections - since.feedback_corrections;
  d.feedback_escapes <- t.feedback_escapes - since.feedback_escapes;
  d.feedback_replans <- t.feedback_replans - since.feedback_replans;
  d.promise_evals <- t.promise_evals - since.promise_evals;
  d.moves_reordered <- t.moves_reordered - since.moves_reordered;
  d.anytime_improvements <- t.anytime_improvements - since.anytime_improvements;
  d

let count_task t kind =
  t.tasks <- t.tasks + 1;
  let i = task_kind_index kind in
  t.tasks_by_kind.(i) <- t.tasks_by_kind.(i) + 1

let tasks_of_kind t kind = t.tasks_by_kind.(task_kind_index kind)

let note_stack_depth t depth = if depth > t.stack_hwm then t.stack_hwm <- depth

let pp ppf t =
  Format.fprintf ppf
    "goals=%d hits=%d misses=%d groups=%d mexprs=%d firings=%d plans=%d enforcers=%d \
     failures=%d pruned=%d merges=%d tasks=%d hwm=%d \
     lb-pruned=%d limits-tightened=%d fastpath=%d \
     mqo-shared=%d mqo-mat=%d mqo-reuse=%d fb-runs=%d fb-observed=%d fb-drift=%d \
     fb-corrections=%d fb-escapes=%d fb-replans=%d promise-evals=%d reordered=%d \
     anytime=%d"
    t.goals t.goal_hits t.goal_misses t.groups_created t.mexprs_created t.rule_firings
    t.plans_costed t.enforcer_moves t.failures t.pruned t.merges t.tasks t.stack_hwm
    t.goals_pruned_lb t.input_limits_tightened t.memo_fastpath_hits t.mqo_shared_groups
    t.mqo_materialize_chosen t.mqo_reuse_hits t.feedback_runs t.feedback_nodes_observed
    t.feedback_drift_nodes t.feedback_corrections t.feedback_escapes t.feedback_replans
    t.promise_evals t.moves_reordered t.anytime_improvements

let pp_tasks ppf t =
  Format.fprintf ppf "tasks=%d (%s) hwm=%d" t.tasks
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%s=%d" (task_kind_name k) (tasks_of_kind t k))
          task_kinds))
    t.stack_hwm

(* Every counter with its metric-name suffix, in display order — the
   single source for metrics registration (and for the glossary in the
   README, which must list exactly these names). *)
let fields t =
  [
    ("goals", fun () -> t.goals);
    ("goal_hits", fun () -> t.goal_hits);
    ("goal_misses", fun () -> t.goal_misses);
    ("groups_created", fun () -> t.groups_created);
    ("mexprs_created", fun () -> t.mexprs_created);
    ("rule_firings", fun () -> t.rule_firings);
    ("plans_costed", fun () -> t.plans_costed);
    ("enforcer_moves", fun () -> t.enforcer_moves);
    ("failures", fun () -> t.failures);
    ("pruned", fun () -> t.pruned);
    ("merges", fun () -> t.merges);
    ("tasks_total", fun () -> t.tasks);
    ("stack_hwm", fun () -> t.stack_hwm);
    ("goals_pruned_lb", fun () -> t.goals_pruned_lb);
    ("input_limits_tightened", fun () -> t.input_limits_tightened);
    ("memo_fastpath_hits", fun () -> t.memo_fastpath_hits);
    ("mqo_shared_groups", fun () -> t.mqo_shared_groups);
    ("mqo_materialize_chosen", fun () -> t.mqo_materialize_chosen);
    ("mqo_reuse_hits", fun () -> t.mqo_reuse_hits);
    ("feedback_runs", fun () -> t.feedback_runs);
    ("feedback_nodes_observed", fun () -> t.feedback_nodes_observed);
    ("feedback_drift_nodes", fun () -> t.feedback_drift_nodes);
    ("feedback_corrections", fun () -> t.feedback_corrections);
    ("feedback_escapes", fun () -> t.feedback_escapes);
    ("feedback_replans", fun () -> t.feedback_replans);
    ("promise_evals", fun () -> t.promise_evals);
    ("moves_reordered", fun () -> t.moves_reordered);
    ("anytime_improvements", fun () -> t.anytime_improvements);
  ]
  @ List.map
      (fun k ->
        let suffix =
          String.map (fun c -> if c = '-' then '_' else c) (task_kind_name k)
        in
        ("tasks_" ^ suffix, fun () -> tasks_of_kind t k))
      task_kinds

let metric_names prefix = List.map (fun (n, _) -> prefix ^ n) (fields (create ()))

let register ?(prefix = "volcano_search_") reg t =
  List.iter
    (fun (name, read) ->
      Obs.Metrics.gauge reg (prefix ^ name) (fun () -> float_of_int (read ())))
    (fields t)
