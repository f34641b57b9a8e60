(** The generated relational optimizer, packaged behind a concrete API:
    build the model from a catalog, apply the generator (the
    {!Volcano.Search.Make} functor), optimize one query, and return the
    winning plan with its cost and search statistics. A fresh memo is
    used per query, as in the paper. *)

(** A plan annotated with the optimizer's per-node promises. *)
type plan_node = {
  alg : Relalg.Physical.alg;
  children : plan_node list;
  props : Relalg.Phys_prop.t;  (** physical properties the node delivers *)
  cost : Relalg.Cost.t;  (** total cost of the subtree *)
}

type result = {
  plan : plan_node option;
      (** [None]: no plan within the cost limit (or, under an exhausted
          budget, none found yet) *)
  complete : bool;
      (** [false]: the task/time budget ran out; [plan] is the best
          found so far (anytime optimization) *)
  tasks_run : int;  (** engine tasks this optimization executed *)
  stats : Volcano.Search_stats.t;
  memo_groups : int;
  memo_mexprs : int;
  explain : string option;
      (** winner provenance rendered from the memo — per-node costs,
          producing rules, and losing alternatives with reasons — when
          the request's [explain] flag was on and a plan was found *)
}

type request = {
  catalog : Catalog.t;
  params : Relalg.Cost_model.params;
  flags : Rel_model.flags;
  pruning : bool;
  guided_pruning : bool;
      (** layer group cost lower bounds on top of Figure-2 pruning:
          kill goals whose bound exceeds their limit and tighten input
          limits by unresolved siblings' bounds (default [true]; no
          effect when [pruning] is off) *)
  max_moves : int option;
  limit : Relalg.Cost.t option;  (** cost limit (Figure 2's Limit); [None] = infinity *)
  max_tasks : int option;  (** deterministic step budget; [None] = unlimited *)
  max_millis : float option;  (** wall-clock budget; [None] = unlimited *)
  tracer : Obs.Trace.t option;
      (** hierarchical span collector for the search (goal and task
          spans); export with {!Obs.Chrome_trace} *)
  profiler : Obs.Profile.t option;
      (** per-rule / per-enforcer / per-operator effort attribution
          (tasks, mexprs, plans won, pruned goals, wasted work,
          cumulative task time). Plan-inert: attaching a profiler never
          changes the found plan. *)
  recorder : Obs.Flight_recorder.t option;
      (** always-on flight recorder of recent engine events in
          a fixed-size ring, dumped post-mortem on abnormal ends
          (budget pause). Plan-inert. *)
  explain : bool;
      (** record losing alternatives during the search and render winner
          provenance into the result's [explain] field *)
  restore_columns : bool;
      (** append a projection restoring the logical column order when
          join commutativity reordered the output (default [true]; plan
          benchmarks turn it off so both comparands are judged on the
          bare plan) *)
  promise : Volcano.Search.promise_mode;
      (** how each goal's assembled moves are ordered for pursuit
          (default {!Volcano.Search.Dynamic}: estimate-aware scoring
          from the model's local cost estimates and the input groups'
          cost lower bounds; {!Volcano.Search.Static} is the paper's
          per-rule promise integers, kept as the ablation arm). Under
          unbounded budgets the found plan is bit-identical either way;
          only the order incumbents arrive in changes. *)
}

val request : Catalog.t -> request
(** Default request: full paper configuration, pruning on, exhaustive
    moves, no cost limit. *)

val optimize :
  request -> Relalg.Logical.expr -> required:Relalg.Phys_prop.t -> result
(** One-shot optimization on a fresh memo: generate the optimizer for
    the request's catalog and flags, insert the query, and search for
    the cheapest plan delivering [required]. *)

(** {1 Anytime ladder: plan-cost-vs-budget curves} *)

(** One rung of an anytime ladder: the state of the search when its
    cumulative task budget reached [at_budget]. *)
type anytime_point = {
  at_budget : int;  (** cumulative task budget of this rung *)
  at_tasks : int;  (** tasks actually executed when the rung was read *)
  at_cost : Relalg.Cost.t option;  (** best-so-far plan cost, if any *)
  at_complete : bool;  (** the search finished within this rung's budget *)
}

type anytime = {
  an_points : anytime_point list;  (** one per requested budget, ascending *)
  an_incumbents : (int * Relalg.Cost.t) list;
      (** [(tasks, cost)] at every strict improvement of the root
          goal's best-so-far plan, oldest first: tasks-to-first-
          incumbent is the head's first component *)
  an_result : result;  (** the state after the last rung *)
}

val optimize_anytime :
  request -> budgets:int list -> Relalg.Logical.expr ->
  required:Relalg.Phys_prop.t -> anytime
(** Run ONE search, pausing at each cumulative task budget of [budgets]
    (sorted and deduplicated) to record the best-so-far cost: the
    plan-cost-vs-budget curve of the run, at the total price of the
    largest budget. *)

val to_physical : plan_node -> Relalg.Physical.plan
(** Strip annotations for execution. *)

val plan_cost : plan_node -> Relalg.Cost.t
(** Total cost of the plan (the root node's subtree cost). *)

val pp_plan : Format.formatter -> plan_node -> unit
(** Indented rendering with per-node properties and costs. *)

val explain : plan_node -> string
(** Multi-line EXPLAIN rendering with properties and costs. *)

(** {1 Optimizer sessions: longer-lived partial results}

    The paper reinitializes the memo per query but flags "research into
    longer-lived partial results" (§3). A session keeps one memo across
    queries on the same catalog: equivalence classes, winners, and
    failures for shared subexpressions are reused, so similar queries
    optimize faster. *)

type session
(** One memo kept alive across queries on the same catalog. *)

val session : request -> session
(** Create a session; the request's configuration applies to every
    optimization in it. *)

val optimize_in :
  session -> Relalg.Logical.expr -> required:Relalg.Phys_prop.t -> result
(** Like {!optimize} but accumulating in the session's memo. Statistics
    are cumulative across the session ({!Volcano.Search_stats.diff}
    recovers per-query deltas). Sessions honor the request's
    [restore_columns] exactly as {!optimize} does. *)

val session_request : session -> request
(** The request the session was created from (used by the plan service
    to renew sessions when the catalog changes). *)
