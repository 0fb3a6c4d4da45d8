(** Incremental single-arc evaluation engine.

    The local search's inner loop evaluates a weight setting that differs
    from the last committed one on exactly one arc.  A full {!Eval.evaluate}
    pays [O(n)] Dijkstra runs plus an [O(n^2)] delay pass per trial; this
    engine caches, per traffic class, the routing state, each destination's
    arc-load contribution and each destination's SLA penalty subtotal, and
    recomputes only the destinations the single-arc move can affect (see
    {!Dtr_spf.Routing.with_changed_arc}).  Load and [Lambda] totals are
    re-summed from the per-destination caches in destination order, which —
    together with the per-destination fold in {!Eval.Internal.dest_sla} —
    makes every result {e bit-identical} to the full evaluation: not merely
    close, the same floats.  [Phi] is recomputed exactly, in [O(m)], from the
    patched loads.

    The same caching pattern is reused {e across failure states}: a failure
    sweep ({!Eval.sweep_details}, {!Eval.compound_sweep_bounded}) builds the
    per-destination contribution rows and SLA subtotals once from the
    no-failure base and re-prices each single-arc failure by repairing the
    routing with {!Dtr_spf.Spf_delta} and re-summing only the destinations
    that failure touches — see the dynamic-SPF section of [DESIGN.md].

    Protocol: {!anchor} at a known weight setting, then for each trial call
    {!try_arc} followed by {e exactly one} of {!commit} / {!rollback} —
    mirroring [Weights.save_arc]/[restore_arc] on the caller's side.
    Accessors ({!cost}, {!violations}, {!loads}, {!current_routing}) reflect
    the pending trial when one is staged, the committed state otherwise. *)

module Lexico = Dtr_cost.Lexico

type t

val create : Scenario.t -> t
(** A fresh engine, anchored at the all-ones weight setting. *)

val scenario : t -> Scenario.t

val anchor : t -> Weights.t -> Lexico.t
(** Full recompute at [w]; [w] becomes the committed state (copied — the
    caller's vector is not retained).  Discards any pending trial.  Call at
    round starts and whenever the caller changed more than one arc since the
    last commit (diversification, restarts).
    @raise Invalid_argument on a weight-vector size mismatch. *)

val try_arc : t -> Weights.t -> arc:int -> Lexico.t
(** Cost of [w], which must equal the committed setting everywhere except
    (possibly) on [arc].  Stages the trial without installing it.
    @raise Invalid_argument if a trial is already pending, on a bad arc id,
    or on a weight-vector size mismatch. *)

val try_arc_bounded :
  t -> prune:(Lexico.t -> bool) -> Weights.t -> arc:int -> Lexico.t option
(** Like {!try_arc}, but abandons the trial the moment a monotone partial
    cost — ⟨Λ,Φ⟩ accumulated in the fixed destination-then-arc order of the
    full evaluation, both components non-decreasing — satisfies [prune].
    [prune] must answer [true] only for partials no completion of which the
    caller would accept ({!Dtr_cost.Lexico.prunes} against the incumbent(s)
    is the sound instance); under that contract [Some cost] carries the
    bit-identical {!try_arc} result and [None] certifies the candidate
    would have been rejected.  After [None] nothing is staged, but the
    engine still requires the {!rollback} of the usual trial protocol
    (commit is invalid). *)

val commit : t -> unit
(** Installs the pending trial as the new committed state.
    @raise Invalid_argument if no trial is pending. *)

val rollback : t -> unit
(** Discards the pending trial; the committed state is untouched.
    @raise Invalid_argument if no trial is pending. *)

val cost : t -> Lexico.t
(** Cost of the current state (pending trial if staged, else committed). *)

val violations : t -> int

val unreachable_pairs : t -> int

val loads : t -> float array
(** Copy of the current total per-arc loads (both classes). *)

val throughput_loads : t -> float array

val current_routing : t -> Dtr_spf.Routing.t * Dtr_spf.Routing.t
(** Current no-failure routing bases [(delay class, throughput class)] —
    the pending trial's if staged.  The move engine ({!Pricer}) feeds these
    to {!Eval.compound_sweep_bounded} so a failure sweep after a single-arc
    move starts from the cached bases instead of recomputing them. *)
