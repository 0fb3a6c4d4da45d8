(** The cached, bounded move pricer behind Phase 2 and the warm start.

    A move is priced in two stages: the normal cost with {!Eval_incr},
    behind an optional early-abort predicate, then the failure sweep from
    the engine's cached no-failure bases ({!Eval.compound_sweep_bounded})
    behind one {!Delta_cache} lookup — a [Full] entry is the answer, a
    [Lower] entry that prunes against the search bound rejects the move
    unpriced, and a sweep that aborts on the bound is recorded as a new
    lower bound.  Every abort is exact ({!Dtr_cost.Lexico.prunes}), so the
    search follows the same trajectory as with from-scratch pricing (the
    test suite checks it against a stateless from-scratch engine). *)

module Lexico = Dtr_cost.Lexico

type objective =
  | Kfail_if of (Lexico.t -> bool)
      (** Phase 2: [Kfail] of the settings whose normal cost satisfies the
          predicate (Eqs. (5)–(6), monotone: a partial that breaks it is
          certifiably infeasible); the others are
          {!Local_search.Infeasible} *)
  | Normal_plus_kfail
      (** warm start: [J = K_normal + Kfail], whose bound also prunes the
          normal stage *)

val engine :
  ?exec:Dtr_exec.Exec.t ->
  ?cache:Delta_cache.t ->
  Scenario.t ->
  objective ->
  failures:Dtr_topology.Failure.t list ->
  Local_search.engine
(** A fresh engine.  [exec] (default {!Dtr_exec.Exec.default}) runs the
    sweeps, bit-identically at every job count.  The caller owns [cache]
    and must {!Delta_cache.bump} it when the scenario or failure set
    changes. *)
