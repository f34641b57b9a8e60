(* The per-layer figures the workloads share, and the span names. *)

open Util

(* Span names: the public function each span wraps. *)
let parse = "Sqlfront.parse"
let fingerprint = "Plansrv.Fingerprint.of_query"
let serve_one = "Plansrv.serve_one"
let optimize = "Relmodel.Optimizer.optimize"
let extract = "Relmodel.Optimizer.to_physical"
let execute = "Executor.run"
let update_stats = "Catalog.update_stats"

(* ---------- volcano ---------- *)

(* Search effort summed over the optimizations a run made. *)
type volcano = {
  stats : Volcano.Search_stats.t;
  mutable opts : int;
  mutable memo_mexprs : int;  (** summed final memo sizes, where known *)
}

let volcano () = { stats = Volcano.Search_stats.create (); opts = 0; memo_mexprs = 0 }

let note_optimization v (r : Relmodel.Optimizer.result) =
  Volcano.Search_stats.merge ~into:v.stats r.stats;
  v.opts <- v.opts + 1;
  v.memo_mexprs <- v.memo_mexprs + r.memo_mexprs

(* [optimize_ms]: the time those optimizations took in all. *)
let volcano_metrics v ~optimize_ms =
  let s = v.stats in
  let per x = ratio (fi x) (fi v.opts) in
  let kind k = per (Volcano.Search_stats.tasks_of_kind s k) in
  [
    m "volcano.tasks" "tasks/opt" (per s.tasks);
    m "volcano.tasks.apply_transform" "tasks/opt" (kind Apply_transform);
    m "volcano.tasks.explore_group" "tasks/opt" (kind Explore_group);
    m "volcano.rule_firings" "firings/opt" (per s.rule_firings);
    m "volcano.mexprs_created" "mexprs/opt" (per s.mexprs_created);
    m "volcano.memo_mexprs" "mexprs/opt" (per v.memo_mexprs);
    m "volcano.mexprs_created_per_kept" "ratio" (ratio (fi s.mexprs_created) (fi v.memo_mexprs));
    m "volcano.tasks.optimize_group" "tasks/opt" (kind Optimize_group);
    m "volcano.tasks.optimize_mexpr" "tasks/opt" (kind Optimize_mexpr);
    m "volcano.tasks.optimize_inputs" "tasks/opt" (kind Optimize_inputs);
    m "volcano.tasks.apply_enforcer" "tasks/opt" (kind Apply_enforcer);
    m "volcano.goals_pruned" "count/opt" (per (s.pruned + s.goals_pruned_lb));
    m "volcano.goal_hit_rate" "ratio" (ratio (fi s.goal_hits) (fi (s.goal_hits + s.goal_misses)));
    m "volcano.us_per_task" "us" (ratio (optimize_ms *. 1000.) (fi s.tasks));
  ]

(* ---------- tracing overhead ---------- *)

(* Traced runs alternate traced and untraced requests over the same
   inputs; the overhead is the traced requests' extra time, from the
   time each kind took for the same work. *)
let overhead ~traced_ms ~untraced_ms =
  [
    m "trace.overhead_pct" "%" (100. *. ratio (traced_ms -. untraced_ms) untraced_ms);
    m "trace.overhead_us_per_req" "us" (1000. *. (traced_ms -. untraced_ms));
  ]
