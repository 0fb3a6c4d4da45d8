(** Simulated-annealing weight search — an alternative to the paper's
    accept-only-improvements local search.

    The paper's heuristic escapes local optima by restarting from scratch
    (diversification); annealing instead occasionally accepts worsening
    moves with probability [exp (-delta / T)] under a geometric cooling
    schedule.  Both engines optimize the same lexicographic objective; to
    price a worsening move the two components are scalarised as
    [energy = lambda_weight * Lambda + Phi] ([lambda_weight] defaults to a
    value large enough that one SLA violation outweighs typical congestion
    differences — callers working with unusual cost magnitudes should tune
    it).

    This module exists for experimentation and as a baseline; the paper's
    pipeline ({!Phase1}/{!Phase2}) does not depend on it. *)

module Lexico = Dtr_cost.Lexico

type config = {
  wmax : int;
  initial_temperature : float;  (** in energy units; default 1000 *)
  cooling : float;  (** geometric factor per stage, in (0, 1); default 0.92 *)
  moves_per_stage : int;  (** proposals per temperature stage; default 200 *)
  min_temperature : float;  (** stop when T drops below; default 0.1 *)
  lambda_weight : float;  (** scalarisation of Lambda vs Phi; default 1e4 *)
}

val default_config : wmax:int -> config

type result = {
  best : Weights.t;
  best_cost : Lexico.t;
  proposals : int;  (** total proposed moves *)
  accepted : int;  (** accepted moves (including uphill) *)
  uphill : int;  (** accepted strictly-worsening moves *)
}

val minimize :
  rng:Dtr_util.Rng.t ->
  eval:(Weights.t -> Lexico.t option) ->
  init:Weights.t ->
  config ->
  result
(** Anneals starting from [init] (which must be feasible: [eval init] must
    return [Some]).  Infeasible proposals are always rejected.  The returned
    [best] is the best feasible setting ever visited, not the final state.
    @raise Invalid_argument on a bad configuration or infeasible [init]. *)

val minimize_engine :
  rng:Dtr_util.Rng.t ->
  engine:Local_search.engine ->
  init:Weights.t ->
  config ->
  result
(** {!minimize} over an explicit {!Local_search.engine}: every proposal is a
    single-arc move, priced by [try_arc] and settled with exactly one
    [commit] (move taken) or [rollback].  {!minimize} is this applied to
    {!Local_search.eval_engine}; both consume the same RNG stream. *)

val minimize_incremental :
  rng:Dtr_util.Rng.t ->
  Scenario.t ->
  init:Weights.t ->
  config ->
  result
(** {!minimize_engine} over a fresh {!Eval_incr} engine for the scenario's
    normal-conditions cost — the fast path for annealing on [Knormal].
    Re-visited weight vectors are memoized in a {!Delta_cache}; cached
    costs are bit-identical to re-priced ones and cache decisions consume no randomness, so fixed-seed results
    are unchanged. *)
