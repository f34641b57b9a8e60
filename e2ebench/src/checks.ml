(* The output checks. Each compares what the program returned with a
   reference that does not come from the code under test: the query's
   own relation list, a neutral re-costing of the plan, the optimum
   cost of a fresh sequential optimization, or rows computed by the
   benchmark's reference evaluator ({!Reference}). Plan identity is
   never required: two plans of equal cost are both optimal. *)

open Relalg

(* ---------- plans ---------- *)

let rec scans (p : Physical.plan) =
  match p.alg with
  | Physical.Table_scan t | Physical.Index_scan (t, _, _) | Physical.Scan_materialized t -> [ t ]
  | _ -> List.concat_map scans p.children

(* Costs agree to 1e-9 relative: the same plan costed by two routes
   may sum its parts in another order. *)
let same_cost a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* The order and duplicate-freedom a physical plan delivers, read from
   its operators by the benchmark's own rules, not taken from the
   optimizer's record of the plan. An operator whose output order is not
   guaranteed delivers none. *)
let rec delivered catalog (p : Physical.plan) : Sort_order.t * bool =
  let child () = delivered catalog (List.hd p.children) in
  match p.alg with
  | Physical.Table_scan t -> ((Catalog.find catalog t).Catalog.stored_order, false)
  | Physical.Index_scan (_, cols, _) -> (Sort_order.asc cols, false)
  | Physical.Filter _ | Physical.Materialize _ -> child ()
  | Physical.Project_cols cols ->
    (* The order survives while its leading keys are kept. *)
    let rec prefix = function
      | (c, d) :: rest when List.mem c cols -> (c, d) :: prefix rest
      | _ -> []
    in
    (prefix (fst (child ())), false)
  (* Both stream the left input in its order. *)
  | Physical.Nested_loop_join _ | Physical.Merge_join _ -> (fst (child ()), false)
  | Physical.Hash_join _ | Physical.Hash_join_project _ | Physical.Scan_materialized _ -> ([], false)
  | Physical.Sort o -> (o, snd (child ()))
  | Physical.Merge_gather o -> (o, snd (child ()))
  | Physical.Repartition _ | Physical.Gather -> ([], snd (child ()))
  | Physical.Sort_dedup o -> (o, true)
  | Physical.Stream_aggregate (keys, _) ->
    (* Groups are runs of equal keys: only an input sorted on the keys
       gives one row per group, in the input's key order. *)
    let order = fst (child ()) in
    let n = List.length keys in
    let lead = List.filteri (fun i _ -> i < n) order in
    if List.length lead = n && List.for_all (fun (c, _) -> List.mem c keys) lead then (lead, true)
    else ([], false)
  | Physical.Hash_dedup | Physical.Hash_aggregate _ | Physical.Hash_union | Physical.Hash_intersect
  | Physical.Hash_difference -> ([], true)
  | Physical.Merge_union | Physical.Merge_intersect | Physical.Merge_difference -> (fst (child ()), true)

(* A plan for a query over [relations]: every relation is scanned
   exactly once, and the plan's operators deliver the order and
   duplicate-freedom [required] asks for (the workloads require no
   partitioning). With [recost], the plan re-costed from scratch must
   also cost what was reported with it. That holds on the paper's
   select–join trees; on parsed SQL the optimizer's running estimate may
   differ slightly, because logical properties are frozen per
   equivalence class at first derivation (see plan_cost.mli). *)
let plan ?recost ~catalog ~relations ~(required : Phys_prop.t) (p : Physical.plan) =
  let scanned = List.sort String.compare (scans p) in
  let wanted = List.sort String.compare relations in
  let recost_error =
    Option.bind recost (fun (params, reported) ->
        let estimate = Cost.total (Relmodel.Plan_cost.estimate catalog ~params p) in
        if same_cost estimate reported then None
        else Some (Printf.sprintf "plan re-costs to %.12g, reported %.12g" estimate reported))
  in
  let order, distinct = delivered catalog p in
  let rec leads ~provided = function
    | [] -> true
    | k :: ks -> ( match provided with k' :: ps -> k = k' && leads ~provided:ps ks | [] -> false)
  in
  if scanned <> wanted then
    Error
      (Printf.sprintf "scans [%s], query reads [%s]" (String.concat "," scanned)
         (String.concat "," wanted))
  else if Option.is_some recost_error then Error (Option.get recost_error)
  else if not (leads ~provided:order required.order) then
    Error
      (Printf.sprintf "plan delivers order [%s], query requires [%s]" (Sort_order.to_string order)
         (Sort_order.to_string required.order))
  else if required.distinct && not distinct then Error "query requires distinct rows, plan may repeat"
  else Ok ()

(* A served plan is optimal: its cost equals the cost of a fresh
   sequential optimization under the statistics current when it was
   served. Its structure may differ (ties are broken by memo state). *)
let optimal ~reference ~reported =
  if same_cost reported reference then Ok ()
  else Error (Printf.sprintf "served plan costs %.12g, the optimum is %.12g" reported reference)

(* ---------- rows ---------- *)

(* A bag of rows is kept as its size and two sums of 30-bit per-row
   hashes under independent seeds: equal bags give equal digests, and a
   changed row leaves both sums unchanged with a chance of about 2^-60.
   The expected rows of a whole query pool then take a
   few words each, so the reference data does not swell the heap the
   benchmark measures. *)
type digest = { n : int; h1 : int; h2 : int }

let hash seed (r : Value.t array) = Hashtbl.seeded_hash_param 256 256 seed r

let digest rows =
  Array.fold_left
    (fun d r -> { n = d.n + 1; h1 = d.h1 + hash 0x5eed r; h2 = d.h2 + hash 0xc0ffee r })
    { n = 0; h1 = 0; h2 = 0 } rows

type expected = {
  columns : string array;  (** output columns, by name *)
  bag : digest;  (** the rows, each in [columns] order *)
  order : (string * bool) list;  (** ORDER BY keys, [true] = descending *)
}

let expected ~columns ?(order = []) rows = { columns; bag = digest rows; order }

(* The result rows, bag-equal to the expected rows, and sorted by the
   ORDER BY keys. Under DISTINCT the expected rows are duplicate-free, so
   bag equality also rejects a duplicate. Columns are matched by name, so
   a plan may deliver them in any order. *)
let rows exp ((tuples : Tuple.t array), (schema : Schema.t)) =
  let index name = try Some (Schema.index_of schema name) with Not_found -> None in
  let positions = Array.map index exp.columns in
  if Array.length schema <> Array.length exp.columns || Array.exists Option.is_none positions
  then
    Error
      (Printf.sprintf "result columns [%s], expected [%s]"
         (String.concat "," (Schema.names schema))
         (String.concat "," (Array.to_list exp.columns)))
  else begin
    let positions = Array.map Option.get positions in
    let projected = Array.map (fun t -> Array.map (fun i -> t.(i)) positions) tuples in
    let keys = List.map (fun (c, desc) -> (index c, desc)) exp.order in
    let rec cmp a b = function
      | [] -> 0
      | (Some i, desc) :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then if desc then -c else c else cmp a b rest
      | (None, _) :: rest -> cmp a b rest
    in
    let sorted = ref true in
    for i = 1 to Array.length tuples - 1 do
      if cmp tuples.(i - 1) tuples.(i) keys > 0 then sorted := false
    done;
    if digest projected <> exp.bag then
      Error
        (Printf.sprintf "the %d result rows are not the %d expected" (Array.length tuples)
           exp.bag.n)
    else if List.exists (fun (i, _) -> Option.is_none i) keys then
      Error "an ORDER BY column is missing from the result"
    else if not !sorted then Error "rows are not in ORDER BY order"
    else Ok ()
  end
