(** The memo: "a hash table of expressions and equivalence classes"
    (paper §3). An equivalence class (group) represents two
    collections — equivalent logical multi-expressions, whose inputs
    are themselves groups, and physical plans indexed by the property
    vectors for which the class has been optimized (the winner table,
    which also records failures). Duplicate derivations of the same
    expression are detected through the expression index; when the same
    expression is derived in two classes, the classes are merged
    (union-find), and only the expressions referencing the dead class
    are re-indexed (each group tracks its parent expressions).

    The whole memo is arena-shaped: groups live in one flat growable
    array indexed by group id, multi-expressions live in one flat
    growable array indexed by mexpr id (groups hold member/parent id
    lists, not pointers), and optimization-goal keys — (required
    property vector, excluding vector) pairs — are interned to small
    sequential integer ids. Every per-group goal table (winners,
    in-progress marks, cost lower bounds) is then a flat array
    indexed by goal id: the stepper loop's hot lookups are a bounds
    check and an array load, with no hashing and no per-entry boxes
    beyond the stored values themselves.

    The memo has a single writer: one search engine drives it, so no
    table is locked. *)

module Make (M : Signatures.MODEL) = struct
  type group = int

  type mexpr = {
    mid : int;  (** arena id; stable for the life of the memo *)
    op : M.op;
    op_h : int;  (** cached [M.op_hash op]: operators can be large *)
    mutable key_h : int;
        (** cached combined structural hash ([op_h] folded with the
            input group ids); recomputed when a merge re-points inputs *)
    mutable inputs : group list;
        (** kept canonical: re-pointed whenever an input group merges *)
    mutable owner : group;  (** canonicalize with [find_root] before use *)
    mutable applied : int;  (** bitmask of transformation rules already fired *)
    mutable dead : bool;  (** folded into an identical expression after a merge *)
  }

  (** A physical plan node. Children are referenced by optimization
      goal so the full tree can be re-extracted from winner tables. *)
  type plan = {
    p_alg : M.alg;
    p_inputs : (group * M.phys_props * M.phys_props option) list;
        (** (group, required, excluding vector) per input *)
    p_props : M.phys_props;  (** properties the plan promises to deliver *)
    p_cost : M.cost;  (** total cost including inputs *)
    p_rule : string;
        (** provenance: the implementation rule that produced this
            node's algorithm choice, or ["enforcer"] for enforcer
            moves — surfaced by EXPLAIN *)
  }

  type winner = {
    mutable w_plan : plan option;  (** [None] = failure *)
    mutable w_bound : M.cost;  (** cost limit the optimization ran under *)
  }

  (** Why a pursued alternative did not become (or stay) the winner —
      EXPLAIN's losing-reason annotations, recorded per goal as the
      search abandons or completes each move. *)
  type alt_reason =
    | Alt_completed
        (** fully costed candidate; the eventual winner is among these,
            the rest lost on cost (or arrived over the limit) *)
    | Alt_over_bound
        (** abandoned mid-pursuit: accumulated cost exceeded the
            branch-and-bound bound (Figure 2's limit test) *)
    | Alt_pruned_lb
        (** guided pruning: the lower-bound projection already exceeded
            the bound, so the move was never pursued *)
    | Alt_input_failed
        (** an input goal concluded with no plan within its limit — a
            failure-table hit or a fresh bounded failure *)

  (** One considered-and-rejected (or considered-and-won) alternative
      for a goal. *)
  type alt = {
    a_alg : M.alg;
    a_rule : string;  (** producing rule, or ["enforcer"] *)
    a_cost : M.cost option;
        (** full cost for {!Alt_completed}, the partial accumulated
            cost for {!Alt_over_bound}, [None] otherwise *)
    a_reason : alt_reason;
  }

  module Goal_key = struct
    type t = M.phys_props * M.phys_props option

    let equal (r1, e1) (r2, e2) =
      M.pp_equal r1 r2
      &&
      match e1, e2 with
      | None, None -> true
      | Some a, Some b -> M.pp_equal a b
      | None, Some _ | Some _, None -> false

    let hash (r, e) =
      M.pp_hash r + (31 * match e with None -> 0 | Some p -> 1 + M.pp_hash p)
  end

  module Goal_tbl = Hashtbl.Make (Goal_key)

  (** Interned-goal-id tables, for sparse id-keyed side tables (EXPLAIN
      provenance). *)
  module Id_tbl = Hashtbl.Make (struct
    type t = int

    let equal (a : int) (b : int) = a = b

    let hash (i : int) = i
  end)

  (* The goal-id-indexed per-group tables, as flat growable arrays.
     [None] / [false] are the empty states; arrays grow geometrically
     on first write past the end, and a read past the end is simply the
     empty state (goal ids are memo-global, so most groups only ever
     see a small prefix). *)

  type group_data = {
    gid : int;
    mutable parent : int;  (** union-find; self when root *)
    mutable mexprs : int list;  (** member mexpr ids; meaningful on roots only *)
    mutable parents : int list;
        (** ids of expressions (anywhere in the memo) using this group
            as an input *)
    mutable lprops : M.logical_props option;
    mutable winners : winner option array;  (** indexed by interned goal id *)
    mutable in_progress : bool array;  (** goal id on the engine's DFS path *)
    mutable lbounds : M.cost option array;
        (** cached {!Signatures.MODEL.cost_lower_bound} per interned
            (required, no-excluding) goal id — guided pruning consults
            the bound once per (group, requirement) *)
    alts : alt list Id_tbl.t;
        (** per-goal EXPLAIN provenance (newest first); only populated
            when the search runs with [explain] recording on *)
    mutable explored : bool;
    mutable exploring : bool;
  }

  module Expr_key = struct
    type t = int * M.op * group list  (* combined structural hash, operator, inputs *)

    let equal ((h1, o1, is1) : t) ((h2, o2, is2) : t) =
      h1 = h2
      && List.length is1 = List.length is2
      && List.for_all2 ( = ) is1 is2
      && M.op_equal o1 o2

    let hash ((h, _, _) : t) = h

    let combine op_h inputs = List.fold_left (fun acc g -> (acc * 31) + g) op_h inputs
  end

  module Expr_tbl = Hashtbl.Make (Expr_key)

  type t = {
    mutable groups : group_data array;  (** group arena, indexed by group id *)
    mutable n_groups : int;
    mutable exprs : mexpr array;  (** mexpr arena, indexed by mexpr id *)
    mutable n_exprs : int;
    index : mexpr Expr_tbl.t;
    stats : Search_stats.t;
    key_index : int Goal_tbl.t;  (** goal-key hash-consing: key -> id *)
    mutable keys : Goal_key.t array;  (** id -> goal key *)
    mutable n_keys : int;
  }

  let create stats =
    {
      groups = [||];
      n_groups = 0;
      exprs = [||];
      n_exprs = 0;
      index = Expr_tbl.create 256;
      stats;
      key_index = Goal_tbl.create 64;
      keys = [||];
      n_keys = 0;
    }

  let data t g =
    assert (g >= 0 && g < t.n_groups);
    t.groups.(g)

  let rec find_root t g =
    let d = data t g in
    if d.parent = g then g
    else begin
      let root = find_root t d.parent in
      d.parent <- root;
      root
    end

  let new_group t =
    let gid = t.n_groups in
    let d =
      {
        gid;
        parent = gid;
        mexprs = [];
        parents = [];
        lprops = None;
        winners = [||];
        in_progress = [||];
        lbounds = [||];
        alts = Id_tbl.create 1;
        explored = false;
        exploring = false;
      }
    in
    if t.n_groups = Array.length t.groups then begin
      let bigger = Array.make (max 64 (2 * Array.length t.groups)) d in
      Array.blit t.groups 0 bigger 0 t.n_groups;
      t.groups <- bigger
    end;
    t.groups.(t.n_groups) <- d;
    t.n_groups <- t.n_groups + 1;
    t.stats.Search_stats.groups_created <- t.stats.Search_stats.groups_created + 1;
    gid

  (* Growable-array plumbing for the goal-id-indexed tables. Each
     grower pads generously past the requested id so a group's table
     resizes O(log n) times over a whole search. *)

  let grown_len len id = max 8 (max (id + 1) (2 * len))

  let ensure_winners d id =
    let len = Array.length d.winners in
    if id >= len then begin
      let bigger = Array.make (grown_len len id) None in
      Array.blit d.winners 0 bigger 0 len;
      d.winners <- bigger
    end

  let ensure_in_progress d id =
    let len = Array.length d.in_progress in
    if id >= len then begin
      let bigger = Array.make (grown_len len id) false in
      Array.blit d.in_progress 0 bigger 0 len;
      d.in_progress <- bigger
    end

  let ensure_lbounds d id =
    let len = Array.length d.lbounds in
    if id >= len then begin
      let bigger = Array.make (grown_len len id) None in
      Array.blit d.lbounds 0 bigger 0 len;
      d.lbounds <- bigger
    end

  let get_winner d id = if id < Array.length d.winners then d.winners.(id) else None

  let canonical_inputs t inputs = List.map (find_root t) inputs

  let key_of_mexpr (m : mexpr) : Expr_key.t = (m.key_h, m.op, m.inputs)

  let mexpr_of_id t i =
    assert (i >= 0 && i < t.n_exprs);
    t.exprs.(i)

  (* Append a freshly built mexpr to the arena. *)
  let add_expr t m =
    if t.n_exprs = Array.length t.exprs then begin
      let bigger = Array.make (max 64 (2 * Array.length t.exprs)) m in
      Array.blit t.exprs 0 bigger 0 t.n_exprs;
      t.exprs <- bigger
    end;
    t.exprs.(t.n_exprs) <- m;
    t.n_exprs <- t.n_exprs + 1

  (* ------------------------------------------------------------------ *)
  (* Goal-key interning (hash-consing). Every (required, excluding)     *)
  (* pair the search ever forms is mapped to a small integer id, once;  *)
  (* all per-group goal tables are then flat integer-indexed arrays, so *)
  (* repeated lookups stop rehashing property vectors.                  *)
  (* ------------------------------------------------------------------ *)

  (** [intern t key] — the id of [key], allocating one on first sight. *)
  let intern t (key : Goal_key.t) : int =
    match Goal_tbl.find_opt t.key_index key with
    | Some id ->
      t.stats.Search_stats.memo_fastpath_hits <-
        t.stats.Search_stats.memo_fastpath_hits + 1;
      id
    | None ->
      let id = t.n_keys in
      if id = Array.length t.keys then begin
        let bigger = Array.make (max 64 (2 * Array.length t.keys)) key in
        Array.blit t.keys 0 bigger 0 id;
        t.keys <- bigger
      end;
      t.keys.(id) <- key;
      t.n_keys <- id + 1;
      Goal_tbl.replace t.key_index key id;
      id

  let lprops t g =
    let d = data t (find_root t g) in
    match d.lprops with
    | Some p -> p
    | None -> invalid_arg "Memo.lprops: group has no logical properties yet"

  let mexprs t g =
    List.filter_map
      (fun i ->
        let m = t.exprs.(i) in
        if m.dead then None else Some m)
      (data t (find_root t g)).mexprs

  let register_parents t m =
    List.iter
      (fun ig ->
        let d = data t ig in
        d.parents <- m.mid :: d.parents)
      m.inputs

  (* Winner ordering for class merging: a plan beats a failure, a
     cheaper plan beats a dearer one, and of two failures the one
     recorded under the more generous bound carries more information. *)
  let winner_le (w : winner) (v : winner) =
    match w.w_plan, v.w_plan with
    | Some p1, Some p2 -> M.cost_compare p1.p_cost p2.p_cost <= 0
    | Some _, None -> true
    | None, Some _ -> false
    | None, None -> M.cost_compare w.w_bound v.w_bound >= 0

  (* Merge group [b] into group [a] (both roots): the same expression
     was derived in two classes, proving them equivalent. Only the
     expressions referencing [b] need re-indexing; folding may reveal
     further equivalences, which are merged recursively. *)
  let rec merge t a b =
    let a = find_root t a and b = find_root t b in
    if a = b then a
    else begin
      t.stats.Search_stats.merges <- t.stats.Search_stats.merges + 1;
      let da = data t a and db = data t b in
      db.parent <- a;
      da.explored <- da.explored && db.explored;
      (* Combine winner tables, keeping the better entry per goal. Goal
         ids are memo-global, so the tables merge id-for-id. *)
      Array.iteri
        (fun id w ->
          match w with
          | None -> ()
          | Some w -> (
            ensure_winners da id;
            match da.winners.(id) with
            | None -> da.winners.(id) <- Some w
            | Some existing ->
              if not (winner_le existing w) then da.winners.(id) <- Some w))
        db.winners;
      (* Combine EXPLAIN provenance id-for-id: both classes' recorded
         alternatives describe the same (now unified) goal. *)
      Id_tbl.iter
        (fun id l ->
          match Id_tbl.find_opt da.alts id with
          | None -> Id_tbl.replace da.alts id l
          | Some existing -> Id_tbl.replace da.alts id (l @ existing))
        db.alts;
      (* Move b's expressions and parent links into a. Cross-group
         same-key duplicates cannot exist (insert would have merged
         instead), so b's own expressions keep their index entries. *)
      List.iter
        (fun i ->
          let m = t.exprs.(i) in
          if not m.dead then m.owner <- a)
        db.mexprs;
      da.mexprs <- da.mexprs @ db.mexprs;
      db.mexprs <- [];
      let b_parents = db.parents in
      da.parents <- da.parents @ b_parents;
      db.parents <- [];
      (* Re-index every live expression that referenced b. *)
      let pending = ref [] in
      List.iter
        (fun i ->
          let m = t.exprs.(i) in
          if not m.dead then begin
            Expr_tbl.remove t.index (key_of_mexpr m);
            m.inputs <- canonical_inputs t m.inputs;
            m.key_h <- Expr_key.combine m.op_h m.inputs;
            let key = key_of_mexpr m in
            match Expr_tbl.find_opt t.index key with
            | None -> Expr_tbl.replace t.index key m
            | Some existing ->
              (* [m] now spells the same expression as [existing]. *)
              existing.applied <- existing.applied lor m.applied;
              m.dead <- true;
              let go = find_root t m.owner and ge = find_root t existing.owner in
              if go <> ge then pending := (go, ge) :: !pending
          end)
        b_parents;
      List.iter (fun (x, y) -> ignore (merge t x y)) !pending;
      find_root t a
    end

  (** Insert expression [op inputs]. If it already exists, returns its
      group (merging with [target] if they differ — duplicate-derivation
      detection). Otherwise adds a new mexpr to [target] or to a fresh
      group. Returns the root group holding the expression. *)
  let insert t ?target op inputs =
    let inputs = canonical_inputs t inputs in
    let op_h = M.op_hash op in
    let key : Expr_key.t = (Expr_key.combine op_h inputs, op, inputs) in
    match Expr_tbl.find_opt t.index key with
    | Some m -> begin
      let g = find_root t m.owner in
      match target with
      | None -> g
      | Some tgt ->
        let tgt = find_root t tgt in
        if tgt = g then g else merge t g tgt
    end
    | None ->
      let g = match target with Some tgt -> find_root t tgt | None -> new_group t in
      let h, _, _ = key in
      let m =
        { mid = t.n_exprs; op; op_h; key_h = h; inputs; owner = g; applied = 0;
          dead = false }
      in
      add_expr t m;
      let d = data t g in
      d.mexprs <- m.mid :: d.mexprs;
      d.explored <- false;
      Expr_tbl.replace t.index key m;
      register_parents t m;
      t.stats.Search_stats.mexprs_created <- t.stats.Search_stats.mexprs_created + 1;
      (if d.lprops = None then
         let input_props = List.map (lprops t) inputs in
         d.lprops <- Some (M.derive op input_props));
      g

  let winner_id t g id = get_winner (data t (find_root t g)) id

  let set_winner_id t g id plan bound =
    let d = data t (find_root t g) in
    ensure_winners d id;
    d.winners.(id) <- Some { w_plan = plan; w_bound = bound }

  let winner t g key = winner_id t g (intern t key)

  let set_winner t g key plan bound = set_winner_id t g (intern t key) plan bound

  (** [record_alt t g id alt] — append EXPLAIN provenance for the goal
      [id] of group [g]. *)
  let record_alt t g id alt =
    let d = data t (find_root t g) in
    let existing = Option.value (Id_tbl.find_opt d.alts id) ~default:[] in
    Id_tbl.replace d.alts id (alt :: existing)

  (** [alts t g id] — recorded alternatives for a goal, oldest first
      (the order the search pursued them in). *)
  let alts t g id =
    let d = data t (find_root t g) in
    List.rev (Option.value (Id_tbl.find_opt d.alts id) ~default:[])

  (** Winner-table snapshot with materialized keys, for tests and
      debugging (the live table is indexed by interned ids). *)
  let winners_alist t g : (Goal_key.t * winner) list =
    let d = data t (find_root t g) in
    let out = ref [] in
    Array.iteri
      (fun id w -> match w with None -> () | Some w -> out := (t.keys.(id), w) :: !out)
      d.winners;
    !out

  (** [lower_bound t g required] — the model's certified cost lower
      bound for delivering [required] from group [g], cached per
      (group, interned requirement). *)
  let lower_bound t g required =
    let g = find_root t g in
    let d = data t g in
    let id = intern t (required, None) in
    match if id < Array.length d.lbounds then d.lbounds.(id) else None with
    | Some c -> c
    | None ->
      let c =
        match d.lprops with
        | Some props -> M.cost_lower_bound props required
        | None -> M.cost_zero
      in
      ensure_lbounds d id;
      d.lbounds.(id) <- Some c;
      c

  let in_progress t g id =
    let d = data t (find_root t g) in
    id < Array.length d.in_progress && d.in_progress.(id)

  let mark_in_progress t g id =
    let d = data t (find_root t g) in
    ensure_in_progress d id;
    d.in_progress.(id) <- true

  let unmark_in_progress t g id =
    let d = data t (find_root t g) in
    if id < Array.length d.in_progress then d.in_progress.(id) <- false

  let is_explored t g = (data t (find_root t g)).explored

  let set_explored t g v = (data t (find_root t g)).explored <- v

  let is_exploring t g = (data t (find_root t g)).exploring

  let set_exploring t g v = (data t (find_root t g)).exploring <- v

  let n_groups t =
    let n = ref 0 in
    for g = 0 to t.n_groups - 1 do
      if t.groups.(g).parent = g then incr n
    done;
    !n

  let n_mexprs t =
    let n = ref 0 in
    for g = 0 to t.n_groups - 1 do
      if t.groups.(g).parent = g then
        n :=
          !n
          + List.length (List.filter (fun i -> not t.exprs.(i).dead) t.groups.(g).mexprs)
    done;
    !n

  let roots t =
    let out = ref [] in
    for g = t.n_groups - 1 downto 0 do
      if t.groups.(g).parent = g then out := g :: !out
    done;
    !out

  (** One arbitrary logical expression tree from a group, for display
      and debugging. *)
  let rec extract_any t g : M.op Tree.t =
    match mexprs t g with
    | [] -> invalid_arg "Memo.extract_any: empty group"
    | m :: _ -> Tree.node m.op (List.map (extract_any t) m.inputs)
end
