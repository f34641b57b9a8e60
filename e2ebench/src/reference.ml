(* The reference evaluator: what a {!Sqlgen} query must return,
   computed from the catalog's stored rows by the benchmark's own code.
   It applies each relation's selection, then hash-joins the relations
   along the query's key equalities in FROM order, then groups, projects
   or removes duplicates. No parser, optimizer or executor code runs
   here. *)

open Relalg

let int_of = function
  | Value.Int v -> Some v
  | _ -> None

let index names name =
  let rec go i = if String.equal names.(i) name then i else go (i + 1) in
  go 0

let leaf catalog (q : Sqlgen.query) i =
  let t = Catalog.find catalog q.rels.(i) in
  let names = Array.map (fun (a : Schema.attribute) -> a.name) t.Catalog.schema in
  let v = index names (Sqlgen.col q i "val") in
  let keep r =
    match int_of r.(v), q.filters.(i) with
    | Some x, (Sqlgen.Le, c) -> x <= c
    | Some x, (Sqlgen.Gt, c) -> x > c
    | None, _ -> false
  in
  (names, Array.of_seq (Seq.filter keep (Array.to_seq t.Catalog.tuples)))

(* Join [rows] (columns [names]) with relation [ch] on
   [names.(key) = ch.id]. *)
let hash_join (names, rows) (cnames, crows) ~key ~id =
  let by_id = Hashtbl.create (max 16 (Array.length crows)) in
  Array.iter (fun r -> Hashtbl.add by_id r.(id) r) crows;
  let out = ref [] in
  Array.iter
    (fun r -> List.iter (fun c -> out := Array.append r c :: !out) (Hashtbl.find_all by_id r.(key)))
    rows;
  (Array.append names cnames, Array.of_list !out)

let eval catalog (q : Sqlgen.query) : Checks.expected =
  let names, rows =
    List.fold_left
      (fun acc (p, c, ch) ->
        let ((cnames, _) as child) = leaf catalog q ch in
        hash_join acc child
          ~key:(index (fst acc) (Sqlgen.col q p c))
          ~id:(index cnames (Sqlgen.col q ch "id")))
      (leaf catalog q 0) q.edges
  in
  let project cols = Array.map (fun r -> Array.map (fun c -> r.(index names c)) cols) rows in
  match q.kind with
  | Sqlgen.Plain -> Checks.expected ~columns:names rows
  | Sqlgen.Order_by order -> Checks.expected ~columns:names ~order rows
  | Sqlgen.Group_by { key; summed; ordered } ->
    let k = index names key and s = index names summed in
    let groups = Hashtbl.create 256 in
    Array.iter
      (fun r ->
        let n, total = Option.value (Hashtbl.find_opt groups r.(k)) ~default:(0, 0) in
        Hashtbl.replace groups r.(k) (n + 1, total + Option.get (int_of r.(s))))
      rows;
    let out =
      Hashtbl.fold (fun key (n, total) acc -> [| key; Value.Int n; Value.Int total |] :: acc) groups []
    in
    Checks.expected ~columns:[| key; "cnt"; "total" |]
      ~order:(if ordered then [ (key, false) ] else [])
      (Array.of_list out)
  | Sqlgen.Distinct (a, b) ->
    let seen = Hashtbl.create 256 in
    Array.iter (fun r -> Hashtbl.replace seen r ()) (project [| a; b |]);
    Checks.expected ~columns:[| a; b |] (Array.of_seq (Hashtbl.to_seq_keys seen))
