(** The cost abstract data type (paper §2.2): a record of estimated
    I/O and CPU seconds, combined and compared only through the
    functions here, mirroring the System R-style cost model the paper
    suggests. *)

type t = private {
  io : float;  (** seconds spent on I/O *)
  cpu : float;  (** seconds of CPU work *)
}

val zero : t

val make : io:float -> cpu:float -> t

val infinite : t

val is_infinite : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** Clamps at zero per component and keeps infinity absorbing. *)

val sub_limit : t -> t -> t
(** [sub_limit limit spent] — the limit left for the rest of a plan once
    [spent] of [limit] is used, for branch-and-bound limit propagation:
    {!sub}, plus a slack of 1e-12 of [limit]. The search checks an
    input's cost against this limit, but sums the finished plan's cost
    in another order; without the slack, float rounding can fail an
    input that fits exactly, and a plan that ties the best one is
    pruned. The slack only makes limits more generous, so no plan
    within the exact limit is ever lost. *)

val scale : float -> t -> t
(** Multiply both components (e.g. dividing work across parallel
    workers). *)

val total : t -> float
(** Scalar magnitude used for comparison (I/O + CPU seconds). *)

val compare : t -> t -> int

val ( <% ) : t -> t -> bool

val ( <=% ) : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
