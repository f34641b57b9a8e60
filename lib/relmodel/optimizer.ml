type plan_node = {
  alg : Relalg.Physical.alg;
  children : plan_node list;
  props : Relalg.Phys_prop.t;
  cost : Relalg.Cost.t;
}

type result = {
  plan : plan_node option;
  complete : bool;
  tasks_run : int;
  stats : Volcano.Search_stats.t;
  memo_groups : int;
  memo_mexprs : int;
  explain : string option;
}

type request = {
  catalog : Catalog.t;
  params : Relalg.Cost_model.params;
  flags : Rel_model.flags;
  pruning : bool;
  guided_pruning : bool;
  max_moves : int option;
  limit : Relalg.Cost.t option;
  max_tasks : int option;
  max_millis : float option;
  tracer : Obs.Trace.t option;
  profiler : Obs.Profile.t option;
  recorder : Obs.Flight_recorder.t option;
  explain : bool;
  restore_columns : bool;
  promise : Volcano.Search.promise_mode;
}

let request catalog =
  {
    catalog;
    params = Relalg.Cost_model.default;
    flags = Rel_model.default_flags;
    pruning = true;
    guided_pruning = true;
    max_moves = None;
    limit = None;
    max_tasks = None;
    max_millis = None;
    tracer = None;
    profiler = None;
    recorder = None;
    explain = false;
    restore_columns = true;
    promise = Volcano.Search.Dynamic;
  }

let rec to_physical_raw (p : plan_node) : Relalg.Physical.plan =
  Relalg.Physical.mk p.alg (List.map to_physical_raw p.children)

(* Join commutativity can leave the winning plan's columns in a
   different order than the query's logical schema; restore the
   logical order with a (free at this scale) final projection. *)
let restore_column_order req query (p : plan_node) : plan_node =
  let logical_names = Relalg.Schema.names (Derive.expr req.catalog query).schema in
  let physical_names =
    Relalg.Schema.names (Catalog.plan_schema req.catalog (to_physical_raw p))
  in
  if List.equal String.equal logical_names physical_names then p
  else
    {
      alg = Relalg.Physical.Project_cols logical_names;
      children = [ p ];
      props = p.props;
      cost = p.cost;
    }

let make_searcher req =
  let (module M : Rel_model.REL_MODEL) =
    Rel_model.make ~catalog:req.catalog ~params:req.params ~flags:req.flags ()
  in
  let module S = Volcano.Search.Make (M) in
  let config =
    {
      S.pruning = req.pruning;
      guided = req.guided_pruning;
      max_moves = req.max_moves;
      budget = S.budget ?max_tasks:req.max_tasks ?max_millis:req.max_millis ();
      tracer = req.tracer;
      explain = req.explain;
      promise = req.promise;
      profiler = req.profiler;
      recorder = req.recorder;
    }
  in
  let opt = S.create ~config () in
  let run (query : Relalg.Logical.expr) required : result =
    let limit = Option.value req.limit ~default:Relalg.Cost.infinite in
    let outcome = S.optimize ~limit opt (Rel_model.to_tree query) ~required in
    let rec convert (p : S.plan_tree) : plan_node =
      { alg = p.alg; children = List.map convert p.children; props = p.props; cost = p.cost }
    in
    let finish p =
      if req.restore_columns then restore_column_order req query (convert p)
      else convert p
    in
    let explain =
      (* Winner provenance, straight from the memo (so it reflects the
         plan the search chose, before any column-restoring projection). *)
      if req.explain && outcome.plan <> None then
        Option.map
          (fun x -> Format.asprintf "%a" S.pp_explain x)
          (S.explain opt outcome.root_group ~required)
      else None
    in
    {
      plan = Option.map finish outcome.plan;
      complete = (outcome.status = S.Complete);
      tasks_run = outcome.tasks_run;
      stats = outcome.search_stats;
      memo_groups = outcome.memo_groups;
      memo_mexprs = outcome.memo_mexprs;
      explain;
    }
  in
  run

let optimize req (query : Relalg.Logical.expr) ~required : result =
  (make_searcher req) query required

(* ---------------------------------------------------------------- *)
(* Anytime ladder: one search, observed at a ladder of task budgets  *)
(* ---------------------------------------------------------------- *)

type anytime_point = {
  at_budget : int;  (** cumulative task budget of this rung *)
  at_tasks : int;  (** tasks actually executed when the rung was read *)
  at_cost : Relalg.Cost.t option;  (** best-so-far plan cost, if any *)
  at_complete : bool;  (** the search finished within this rung's budget *)
}

type anytime = {
  an_points : anytime_point list;  (** one per requested budget, ascending *)
  an_incumbents : (int * Relalg.Cost.t) list;
      (** [(tasks, cost)] at every strict root-incumbent improvement *)
  an_result : result;  (** the state after the last rung *)
}

(* Run ONE sequential search, pausing it at each cumulative task budget
   of [budgets] to record the best-so-far cost — the plan-cost-vs-budget
   curve of the run. Budgets are cumulative (the engine's resume
   semantics), so the whole ladder costs only the largest budget. *)
let optimize_anytime req ~budgets (query : Relalg.Logical.expr) ~required : anytime =
  let (module M : Rel_model.REL_MODEL) =
    Rel_model.make ~catalog:req.catalog ~params:req.params ~flags:req.flags ()
  in
  let module S = Volcano.Search.Make (M) in
  let config =
    {
      S.pruning = req.pruning;
      guided = req.guided_pruning;
      max_moves = req.max_moves;
      budget = S.unlimited;
      tracer = req.tracer;
      explain = req.explain;
      promise = req.promise;
      profiler = req.profiler;
      recorder = req.recorder;
    }
  in
  let opt = S.create ~config () in
  let limit = Option.value req.limit ~default:Relalg.Cost.infinite in
  let run = S.start ~limit opt (Rel_model.to_tree query) ~required in
  let rung b =
    let status = S.resume ~budget:(S.budget ~max_tasks:b ()) run in
    let cost =
      Option.map (fun (p : S.plan_tree) -> p.S.cost) (S.best_so_far run)
    in
    {
      at_budget = b;
      at_tasks = run.S.r_tasks;
      at_cost = cost;
      at_complete = (status = S.Complete);
    }
  in
  let points = List.map rung (List.sort_uniq compare budgets) in
  let rec convert (p : S.plan_tree) : plan_node =
    { alg = p.alg; children = List.map convert p.children; props = p.props; cost = p.cost }
  in
  let finish p =
    if req.restore_columns then restore_column_order req query (convert p)
    else convert p
  in
  let out = S.outcome_of run in
  let an_result =
    {
      plan = Option.map finish out.S.plan;
      complete = (out.S.status = S.Complete);
      tasks_run = out.S.tasks_run;
      stats = out.S.search_stats;
      memo_groups = out.S.memo_groups;
      memo_mexprs = out.S.memo_mexprs;
      explain = None;
    }
  in
  { an_points = points; an_incumbents = S.incumbents run; an_result }

let to_physical = to_physical_raw

let plan_cost (p : plan_node) = p.cost

let pp_plan ppf p =
  let rec go depth node =
    Format.fprintf ppf "%s%s  [%s; cost %s]" (String.make depth ' ')
      (Relalg.Physical.alg_name node.alg)
      (Relalg.Phys_prop.to_string node.props)
      (Relalg.Cost.to_string node.cost);
    List.iter
      (fun c ->
        Format.pp_print_newline ppf ();
        go (depth + 2) c)
      node.children
  in
  go 0 p

let explain p = Format.asprintf "%a" pp_plan p

type session = {
  run : Relalg.Logical.expr -> Relalg.Phys_prop.t -> result;
  req : request;
}

let session req = { run = make_searcher req; req }

let optimize_in s query ~required = s.run query required

let session_request s = s.req
