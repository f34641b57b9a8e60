(* Seeded SQL over a [Workload.generate] catalog, for the workloads that
   start from SQL text ([run_sql], [serve_zipf]).

   Every join is a key equality [parent.jkN = child.id]: each row of
   the parent meets at most one row of the child, so a result never
   exceeds its first relation's rows and execution stays bounded at any
   join count. Besides the SQL text, a query keeps the description it
   was made from, which the benchmark's reference evaluator
   ({!Reference}) computes the expected rows from. *)

open Relalg

type cmp =
  | Le
  | Gt

type kind =
  | Plain
  | Order_by of (string * bool) list  (** column, descending *)
  | Group_by of { key : string; summed : string; ordered : bool }
      (** [SELECT key, COUNT( * ) AS cnt, SUM(summed) AS total ... GROUP BY key] *)
  | Distinct of string * string  (** [SELECT DISTINCT a, b] *)

type query = {
  sql : string;
  rels : string array;  (** FROM order; relation [i > 0] joins an earlier one *)
  edges : (int * string * int) list;
      (** [(p, col, c)]: the predicate [rels.(p).col = rels.(c).id], [p < c],
          one per relation after the first, ascending in [c] *)
  filters : (cmp * int) array;  (** per relation, on its [val] column *)
  kind : kind;
}

let kind_name = function
  | Plain -> "plain"
  | Order_by _ -> "order_by"
  | Group_by _ -> "group_by"
  | Distinct _ -> "distinct"

let col q i c = q.rels.(i) ^ "." ^ c
let pick rng a = a.(Random.State.int rng (Array.length a))

(* One query over [root] and [k - 1] other relations of [tables]: a
   chain, star or random tree of key equalities hanging off [root], one
   selection per relation, and the clauses of [kind]. [skel] draws the
   relations and the tree; [rng] draws the join columns, the selections
   and the columns the clauses use. *)
let make ~skel rng ~tables ~root ~k ~kind =
  let others = Util.shuffle skel (Array.of_list (List.filter (( <> ) root) (Array.to_list tables))) in
  let rels = Array.append [| root |] (Array.sub others 0 (k - 1)) in
  let parents =
    match Random.State.int skel 3 with
    | 0 -> Array.init k (fun i -> i - 1)
    | 1 -> Array.make k 0
    | _ -> Array.init k (fun i -> if i = 0 then 0 else Random.State.int skel i)
  in
  let edges = List.init (k - 1) (fun j -> (parents.(j + 1), pick rng [| "jk1"; "jk2" |], j + 1)) in
  (* Thresholds keep 25-75% of a relation's rows. Near 0% the
     optimizer's estimate falls to about zero rows and it may choose a
     cross product that runs for minutes (README.md, "Findings"); a
     wider band also made the slowest tenth of queries, and so the 90th
     percentile, differ more from seed to seed. *)
  let filters =
    Array.init k (fun _ ->
        ((if Random.State.bool rng then Le else Gt), 250 + Random.State.int rng 500))
  in
  let q = { sql = ""; rels; edges; filters; kind = Plain } in
  let any_col () = col q (Random.State.int rng k) (pick rng [| "val"; "jk1"; "id" |]) in
  let kind =
    match kind with
    | `Plain -> Plain
    | `Order_by ->
      let first = any_col () in
      let rec second () = match any_col () with c when String.equal c first -> second () | c -> c in
      Order_by [ (first, Random.State.bool rng); (second (), false) ]
    | `Group_by ->
      Group_by
        {
          key = col q (Random.State.int rng k) "jk2";
          summed = col q (Random.State.int rng k) "val";
          ordered = Random.State.bool rng;
        }
    | `Distinct -> Distinct (col q (Random.State.int rng k) "jk2", col q (Random.State.int rng k) "jk1")
  in
  let select, tail =
    match kind with
    | Plain -> ("SELECT *", "")
    | Order_by keys ->
      ( "SELECT *",
        " ORDER BY "
        ^ String.concat ", " (List.map (fun (c, desc) -> if desc then c ^ " DESC" else c) keys) )
    | Group_by { key; summed; ordered } ->
      ( Printf.sprintf "SELECT %s, COUNT(*) AS cnt, SUM(%s) AS total" key summed,
        Printf.sprintf " GROUP BY %s%s" key (if ordered then " ORDER BY " ^ key else "") )
    | Distinct (a, b) -> (Printf.sprintf "SELECT DISTINCT %s, %s" a b, "")
  in
  let where =
    List.map (fun (p, c, ch) -> Printf.sprintf "%s = %s" (col q p c) (col q ch "id")) edges
    @ List.mapi
        (fun i (cmp, v) ->
          Printf.sprintf "%s %s %d" (col q i "val") (match cmp with Le -> "<=" | Gt -> ">") v)
        (Array.to_list filters)
  in
  let sql =
    Printf.sprintf "%s FROM %s WHERE %s%s" select
      (String.concat ", " (Array.to_list rels))
      (String.concat " AND " where) tail
  in
  { q with sql; kind }

(* Two in five queries are plain; the rest use ORDER BY, GROUP BY or
   DISTINCT. *)
let kinds = [| `Plain; `Order_by; `Plain; `Group_by; `Distinct |]

(* [count] queries with pairwise distinct SQL text. Query [i]'s
   skeleton is the same for every seed: its relation count runs through
   [sizes], its kind through [kinds] and its first relation (whose rows
   bound the result's) through [tables] in turn, and its other relations
   and join tree come from a generator seeded by [i] alone. The run's
   seed draws the rest: join columns, selections, and the columns the
   clauses use. Execution cost depends mostly on which relations a query
   reads; with those fixed, pools drawn per seed cost about the same. *)
let pool ~seed ~tables ~sizes ~count =
  let rng = Random.State.make [| seed; 0x5e1ec7 |] in
  let seen = Hashtbl.create 256 in
  let rec next i =
    let q =
      make ~skel:(Random.State.make [| 0x5ce1e7; i |]) rng ~tables
        ~root:tables.(i mod Array.length tables)
        ~k:sizes.(i mod Array.length sizes)
        ~kind:kinds.(i mod Array.length kinds)
    in
    if Hashtbl.mem seen q.sql then next i
    else begin
      Hashtbl.replace seen q.sql ();
      q
    end
  in
  Array.init count next

(* The catalog both SQL workloads query: 12 of the paper generator's
   relations on its size ladder, from 50,000 rows down to 5,000. The
   database is the same for every seed (seed 12 draws its data); the
   seed draws the queries. *)
let catalog_seed = 12

let catalog () =
  let q =
    Workload.generate
      (Workload.spec ~shape:Workload.Chain ~n_relations:12 ~min_rows:5_000 ~max_rows:50_000
         ~skew:0.4633 ~seed:catalog_seed ())
  in
  (q.Workload.catalog, Array.of_list q.Workload.relations)

let table_rows catalog tables =
  Array.map (fun t -> Array.length (Catalog.find catalog t).Catalog.tuples) tables

(* The query as a selection-pushed logical tree: what the SQL computes,
   built without the parser. Only the tests use it, to hold the
   reference evaluator against [Executor.naive]; [Distinct] leaves the
   duplicate removal to the caller. *)
let pushed q =
  let leaf i =
    let c = Expr.col (col q i "val") in
    let pred =
      match q.filters.(i) with
      | Le, v -> Expr.(c <=% int v)
      | Gt, v -> Expr.(c >% int v)
    in
    Logical.select pred (Logical.get q.rels.(i))
  in
  let joined =
    List.fold_left
      (fun acc (p, c, ch) ->
        let key = Expr.col (col q p c) and id = Expr.col (col q ch "id") in
        Logical.join Expr.(key =% id) acc (leaf ch))
      (leaf 0) q.edges
  in
  match q.kind with
  | Plain | Order_by _ -> joined
  | Group_by { key; summed; _ } ->
    Logical.project [ key; "cnt"; "total" ]
      (Logical.group_by [ key ]
         [
           { Logical.func = Logical.Count; column = None; alias = "cnt" };
           { Logical.func = Logical.Sum; column = Some summed; alias = "total" };
         ]
         joined)
  | Distinct (a, b) -> Logical.project [ a; b ] joined
