(** Per-rule / per-enforcer / per-operator search effort attribution.

    A profiler owns one buffer per {e track} (the search engine
    records on track 0), exactly like
    {!Trace}: buffers are single-writer, so the task hot path records
    without locks, and the collector's registration list is the only
    mutex-guarded state. After the run {!report} merges every track
    into one list of per-(kind, name) entries.

    The attribution contract: the engine charges {e exactly one}
    {!task} call per executed task (so the sum of per-entry task counts
    equals the engine's total task counter), plus side-channel counts —
    mexprs generated per rule firing, plans won per rule, goals pruned
    per rule, and wasted tasks (tasks spent under a move whose subtree
    produced no winner). Recording must never influence the search:
    the profiler is observation-only and plan-inert. *)

type kind = Rule | Enforcer | Operator | Engine

val kind_name : kind -> string

type buf
(** One track's attribution buffer. Single-writer: only the owning
    domain may record into it. *)

type t
(** A collector: the set of track buffers for one optimization. *)

val create : unit -> t

val buf : t -> track:int -> buf
(** Register a new buffer for [track]. Thread-safe. *)

val task : buf -> kind -> string -> ns:int64 -> unit
(** Charge one executed task and its wall time to [(kind, name)]. *)

val mexprs : buf -> kind -> string -> int -> unit
(** Charge [n] generated mexprs (a rule firing's yield). *)

val plan_won : buf -> kind -> string -> unit
(** The winning plan of some goal came from [(kind, name)]. *)

val pruned : buf -> kind -> string -> unit
(** A goal spawned by [(kind, name)] was pruned. *)

val wasted : buf -> kind -> string -> int -> unit
(** Charge [n] tasks of wasted work: tasks executed while pursuing a
    move of [(kind, name)] whose subtree produced no winner. *)

(** {1 Merged report} *)

type entry = {
  kind : kind;
  name : string;
  tasks : int;
  mexprs : int;
  plans_won : int;
  pruned : int;
  wasted : int;
  ns : int64;  (** cumulative monotonic task time *)
}

val report : t -> entry list
(** Every entry merged across tracks, sorted by cumulative time
    (descending). Call only after all writers finished. *)

val total_tasks : t -> int
(** Sum of per-entry task counts — must equal the engine's total task
    counter (the attribution-parity invariant). *)

val tracks : t -> int list
(** The registered track numbers, ascending. *)

val to_json : t -> Json.t

val pp_table : ?top:int -> Format.formatter -> t -> unit
(** Human-readable top-N table, time-ordered. *)

val register : ?prefix:string -> t -> Metrics.registry -> unit
(** Export rule and enforcer entries as [rule_*] gauges (tasks, mexprs,
    plans_won, wasted, time_ms per entry). Gauges read live state at
    scrape time. *)
