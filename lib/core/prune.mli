(** Accounting for the move-space pruning engine.

    Three pruning mechanisms share these counters: lexicographic early-abort
    pricing (exact, bit-identical to full pricing), the cross-restart
    weight-vector delta cache (exact: hits return previously computed
    values), and — behind [--fast] — the criticality-based move proposal
    filter.  The first two are the only production path; the full-pricing
    reference they are checked against lives in the test suite. *)

val enabled : unit -> bool
(** Always [true]: pruning has no off switch.  Kept so run headers can keep
    recording the engine state. *)

(** {1 Effectiveness counters}

    No-ops unless {!Dtr_obs.Metric.enabled}; searches additionally carry
    always-on per-run counts in their results. *)

val note_abort : unit -> unit
(** A candidate's pricing was abandoned on a partial sum. *)

val note_skip : unit -> unit
(** The [--fast] filter skipped proposing a move. *)

val note_cache_hit : unit -> unit
val note_cache_miss : unit -> unit
