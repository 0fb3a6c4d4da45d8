(** Fixed-size OCaml 5 domain pool with a chunked work queue.

    A pool owns [jobs - 1] worker domains (the submitting domain is the
    remaining worker: it participates in every operation, so a pool of size 1
    spawns no domains at all and runs inline).  Workers are spawned once and
    persist across operations, parked on a condition variable between them —
    repeated parallel sections pay no spawn cost and per-domain state cached
    in {!Scratch} slots survives from one operation to the next.

    {b Determinism contract.}  [run]/[map] call [f] {e exactly once} per
    index.  Scheduling (which domain runs which index, in which order) is
    nondeterministic, but [map] writes each result back at its original index
    and the caller observes only the completed array — so as long as [f i] is
    a pure function of [i] (plus read-only captured state), the result is
    bit-identical for every pool size, including 1.  Callers that reduce must
    fold the returned array in index order; nothing else about the execution
    order is observable.

    A pool is meant to be driven from one orchestrating domain at a time;
    submissions from two domains concurrently are not supported.  A task that
    re-enters the pool ([f] itself calling [run]) degrades to inline serial
    execution instead of deadlocking. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val run : t -> n:int -> f:(int -> unit) -> unit
(** Calls [f i] exactly once for every [i] in [0, n), distributing chunks of
    indices over the pool (including the calling domain).  Returns once every
    index has been processed.  If any [f i] raises, remaining chunks are
    abandoned (indices within a claimed chunk may still run), and the first
    exception observed is re-raised in the caller once all workers have
    stopped.

    Chunk granularity is a scheduling choice only — results never depend
    on it.  The pool sizes chunks {e adaptively}, targeting about 1ms of
    work per claim based on the measured per-item cost of previous batches
    (capped at an even jobs-way split), and falls back to the
    [items/(jobs*4)] policy on the first, uncalibrated batch.
    @raise Invalid_argument if [n < 0]. *)

val map : t -> f:(int -> 'a) -> int -> 'a array
(** [map t ~f n] is [[| f 0; …; f (n-1) |]], computed as {!run} —
    order-preserving regardless of pool size and scheduling. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains.  The pool must be idle.
    Idempotent; after shutdown, [run]/[map] execute inline serially. *)
