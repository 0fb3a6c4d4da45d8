(** The reference computation the benchmark scales its times by.

    The host this benchmark runs on changes speed by up to 2× in phases of
    seconds to minutes.  The benchmark runs this computation between its
    timed windows and scales every time by how long it took, so that a
    figure reads the same whatever phase the host was in.  The computation
    must never change: figures from different commits are only comparable
    while it stays the same. *)

val kernel : unit -> float
(** One run: shortest paths from every node of a fixed 80-node graph.
    Returns a checksum that is the same on every run. *)

val time : unit -> float
(** Wall seconds of 24 runs of {!kernel}, about [nominal_s] on a quiet
    2-vCPU VM. *)

val nominal_s : float
(** [0.1].  A time [t] measured next to a {!time} of [r] is reported as
    [t *. nominal_s /. r]: the time on a machine where {!time} takes
    [nominal_s]. *)
