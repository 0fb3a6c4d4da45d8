(** Traffic matrices.

    A traffic matrix assigns a demand volume (Mb/s) to every ordered
    source–destination pair.  The network carries two of them: [RD]
    (delay-sensitive) and [RT] (throughput-sensitive).  The diagonal is
    always zero. *)

type t

val create : int -> t
(** Zero matrix over [n] nodes. *)

val size : t -> int

val get : t -> src:int -> dst:int -> float

val set : t -> src:int -> dst:int -> float -> unit
(** @raise Invalid_argument on the diagonal, a negative or non-finite
    (NaN, ±inf) volume, or out-of-range indices. *)

val copy : t -> t

val total : t -> float
(** Sum of all demands. *)

val scale : t -> float -> t
(** Fresh matrix with every demand multiplied by a non-negative factor. *)

val scale_in_place : t -> float -> unit

val map : t -> (src:int -> dst:int -> float -> float) -> t
(** Pointwise transform; results are clamped at 0. *)

val iter : t -> (src:int -> dst:int -> float -> unit) -> unit
(** Visits only non-zero demands. *)

val pairs : t -> (int * int) list
(** Ordered pairs with non-zero demand. *)

val num_pairs : t -> int

val dense : t -> float array array
(** The underlying [n x n] rows, demand [.(src).(dst)].  Shared, do not
    mutate; this is the representation {!Dtr_spf.Routing.add_loads}
    consumes. *)

val of_dense : float array array -> t
(** Validating copy-in. @raise Invalid_argument on ragged input, negative
    or non-finite entries, or a non-zero diagonal. *)

val add : t -> t -> t
(** Pointwise sum. @raise Invalid_argument on size mismatch. *)
