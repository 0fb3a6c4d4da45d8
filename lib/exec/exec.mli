(** Execution context: how the layers that fan out over independent work
    items (failure sweeps, per-arc statistics, Phase-1b probing) run them.

    A context is either {e serial} — a plain loop on the calling domain —
    or a {!Pool} of domains.  Consumers run one code path at every job
    count: results are written back by item index and reduced in index
    order, so costs, weights, eval counts and search counters do not
    depend on the context.  [jobs] therefore only changes wall-clock, never
    results — the property the test suite enforces by running everything
    under [DTR_JOBS=2] as well.

    Pools are cached per size in a process-global registry ({!of_jobs}), so
    contexts are cheap to construct anywhere; worker domains are joined via
    [at_exit]. *)

type t

val serial : t
(** Run everything inline on the calling domain. *)

val of_jobs : int -> t
(** [of_jobs n] is {!serial} when [n <= 1], otherwise a context over the
    process-wide pool of [n] domains (created on first request, reused
    after).  [n] is a worker count, not a core count — values above
    [Domain.recommended_domain_count ()] are allowed but oversubscribe. *)

val of_pool : Pool.t -> t
(** A context over a caller-managed pool (the caller keeps ownership and is
    responsible for {!Pool.shutdown}). *)

val jobs : t -> int
(** Worker count; [1] for {!serial}. *)

val env_var : string
(** ["DTR_JOBS"]. *)

val default : unit -> t
(** The context library entry points fall back on when the caller passes
    none: [of_jobs n] when the [DTR_JOBS] environment variable holds a
    positive integer [n], {!serial} otherwise.  Lets tests and benches force
    every sweep in the process onto a pool without threading a context. *)

val iter : t -> n:int -> f:(int -> unit) -> unit
(** Calls [f i] exactly once per [i] in [0, n): a plain [for] loop under
    {!serial}, {!Pool.run} otherwise. *)

val map : t -> n:int -> f:(int -> 'a) -> 'a array
(** [[| f 0; …; f (n-1) |]] — order-preserving under every context. *)
