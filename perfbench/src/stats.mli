(** Order statistics over timing samples. *)

val quantile : float array -> float -> float
(** [quantile samples p] is the nearest-rank [p]-th percentile
    ([0 <= p <= 100]) — always one of the samples.
    @raise Invalid_argument on an empty array or [p] out of range. *)

val median : float array -> float

val mean : float array -> float
(** [0.] for an empty array. *)

val tail_percentile : n:int -> float
(** The highest of the percentiles 99.9, 99 and 90 with at least ten of [n]
    samples beyond it (by nearest rank); 50, the median, when none has. *)

val tail : float array -> float * float
(** [(p, value)]: {!tail_percentile} of the sample count and that
    percentile's value. *)
