(** Cross-restart weight-vector delta cache.

    The searches revisit weight vectors: Phase 2 restarts every round from
    a small pool of starting points, rejected perturbations are re-drawn,
    and the daemon's warm re-optimizations repeatedly repair the same
    incumbent.  For a fixed scenario and failure set the priced objective
    is a pure function of the weight vector, so this cache memoizes
    ⟨Λ,Φ⟩ keyed by a rolling hash of the vector: a hit skips the failure
    sweep entirely and returns the exact previously computed cost (full
    vector equality is verified, so collisions cannot corrupt results).

    Aborted pricings are cached too: a bounded sweep that gave up mid-way
    certifies a {e lower bound} — the monotone partial ⟨Λ,Φ⟩ it had
    accumulated — and a later probe can reject the same vector with a
    single {!Dtr_cost.Lexico.prunes} test against its own current bound,
    with no pricing at all.  That is what makes repeat re-optimizations
    cheap: the vast majority of moves abort, and without lower-bound
    entries a re-run would pay every partial sweep again.

    The hash is an XOR of per-arc mixes, maintained in O(1) per single-arc
    move by the search {!cursor}.  Long-lived holders (the serve daemon) call {!bump}
    whenever anything the cost depends on besides the weights changes —
    graph, traffic matrices, failure set — which invalidates every resident
    entry ({e epoch invalidation}); stale entries die lazily under LRU
    pressure. *)

type t

type value =
  | Full of Dtr_cost.Lexico.t
      (** the exact compound cost of the stored vector *)
  | Lower of Dtr_cost.Lexico.t
      (** a componentwise lower bound on it (the partial at a sweep abort);
          sound to reject against any bound [b] with
          [Lexico.prunes partial ~than:b] — one hop, no bound chaining *)

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val bump : t -> unit
(** Invalidate every resident entry (the scenario or failure set moved). *)

(** {1 Search cursor}

    The searches reach the cache through a cursor: a shadow of the
    committed weight vector plus its rolling hash, kept in step with the
    search's single-arc moves so a trial's key costs O(1).  Every
    {!stage} is followed by exactly one {!commit} or {!rollback}, like the
    {!Eval_incr} protocol it runs beside. *)

type cursor

val cursor : t option -> cursor
(** A cursor over the cache; with [None] every {!lookup} misses and
    {!record} stores nothing. *)

val start : cursor -> Weights.t -> unit
(** Re-key at [w] (O(arcs)), dropping any staged move. *)

val stage : cursor -> Weights.t -> arc:int -> unit
(** Key [w], which differs from the committed vector only on [arc]. *)

val lookup : cursor -> Weights.t -> value option
(** Exact: [Some _] only for an entry of the current epoch whose stored
    vector equals [w] (the staged vector, else the committed one).  Counts
    a (verified) hit or a miss. *)

val record : cursor -> Weights.t -> value -> unit
(** Store a copy of [w] with the current epoch.  A {!Full} cost replaces
    any entry for the vector; a {!Lower} bound never downgrades a resident
    {!Full} entry for the same vector. *)

val commit : cursor -> unit
(** The staged move becomes the committed vector. *)

val rollback : cursor -> unit

type stats = {
  hits : int;  (** verified {!Full} hits *)
  lower_hits : int;  (** verified {!Lower} hits *)
  misses : int;  (** includes stale-epoch and collision probes *)
  evictions : int;
  length : int;
  capacity : int;
}

val stats : t -> stats
