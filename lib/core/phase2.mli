(** Phase 2: robust optimization (Eq. (4) / Eq. (7)).

    Starting from the constraint-satisfying settings recorded in Phase 1, a
    second local search minimises the compounded failure cost

    {v  Kfail = < sum_f Lambda_fail,f , sum_f Phi_fail,f >  v}

    over a caller-supplied list of failure scenarios — the critical arcs
    (Eq. (7)), all arcs (full search), or all nodes (the node-robust
    baseline of Section V-F) — subject to the normal-conditions constraints:
    [Lambda_normal = Lambda*] (Eq. (5)) and
    [Phi_normal <= (1 + chi) * Phi*] (Eq. (6)).  Settings violating the
    constraints are infeasible moves. *)

module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

type stats = {
  evals : int;
  sweeps : int;
  rounds : int;
  pruned : int;  (** trials abandoned by early-abort sweep pricing *)
  skipped : int;  (** proposals cut by the [--fast] filter *)
  cache_hits : int;  (** delta-cache hits (sweeps skipped entirely) *)
  cache_misses : int;
}

type output = {
  robust : Weights.t;
  fail_cost : Lexico.t;  (** compounded cost over the optimized scenarios *)
  normal_cost : Lexico.t;  (** normal-conditions cost of [robust] *)
  stats : stats;
}

val run :
  rng:Dtr_util.Rng.t ->
  ?exec:Dtr_exec.Exec.t ->
  ?fast:bool ->
  Scenario.t ->
  phase1:Phase1.output ->
  failures:Failure.t list ->
  output
(** Moves are priced by the {!Pricer} engine: the normal-conditions gate of
    each single-arc move with the {!Eval_incr} engine, the failure sweep
    from its cached no-failure routing bases.  Pricing prunes exactly:
    the gate aborts once the normal partial breaks Eqs. (5)–(6), feasible
    moves are swept against the search incumbent, and a per-run
    {!Delta_cache} lets revisited vectors skip the sweep entirely.  The
    trajectory is the one full pricing follows.

    [fast] (default [false]) enables the criticality-gated proposal filter
    ({!Local_search.filter}): arcs scored by the larger of their Phase-1
    normalised criticality and their utilisation under the Phase-1 best;
    up to 60% of proposals are skipped as the acceptance rate decays.
    Fast runs follow a different trajectory (a quality/time trade, not an
    exact optimisation).

    [exec] (default {!Dtr_exec.Exec.default}) parallelises every critical-set
    sweep — the per-move pricing of all failure scenarios, the dominant cost
    of Phase 2 — over the domain pool; per-failure costs are reduced in
    scenario order, so the search trajectory and result are bit-identical
    for every job count.
    @raise Invalid_argument if [failures] is empty or Phase 1 recorded no
    acceptable setting (cannot happen with {!Phase1.run} output). *)
