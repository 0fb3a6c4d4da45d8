(** Evaluation of a DTR weight setting.

    Given a weight setting [W], this module routes both traffic classes with
    ECMP shortest paths (independently, on their respective logical
    topologies), sums the two classes' loads on every arc (the paper's shared
    FIFO assumption), derives per-arc delays with Eq. (1), and produces the
    global cost [K = <Lambda, Phi>]:

    - [Lambda]: total SLA penalty (Eq. (2)) over all SD pairs carrying
      delay-sensitive traffic, using the expected end-to-end delay over the
      ECMP DAG;
    - [Phi]: Fortz–Thorup congestion cost of the total load, summed over
      arcs that carry throughput-sensitive traffic.

    A {!Dtr_topology.Failure.t} scenario evaluates the same weight setting on
    the surviving topology — weights are {e not} re-optimised after a
    failure, only shortest paths are recomputed, exactly as in IP routing
    with static weights.  Node scenarios also drop the failed node's sourced
    and sunk traffic. *)

module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

type detail = {
  cost : Lexico.t;
  violations : int;  (** SD pairs whose delay exceeds the SLA bound *)
  unreachable_pairs : int;  (** delay-class pairs disconnected by the failure *)
  loads : float array;  (** total per-arc load (both classes), Mb/s *)
  throughput_loads : float array;  (** throughput-class component *)
  pair_delays : (int * int * float) array;
      (** per delay-class SD pair (src, dst, expected delay in seconds);
          empty unless requested *)
}

val evaluate :
  Scenario.t ->
  ?failure:Failure.t ->
  ?rd:Dtr_traffic.Matrix.t ->
  ?rt:Dtr_traffic.Matrix.t ->
  ?want_pair_delays:bool ->
  Weights.t ->
  detail
(** Full evaluation.  [rd]/[rt] override the scenario's matrices (used to
    test a solution against perturbed traffic, Section V-F).
    @raise Invalid_argument on malformed weights. *)

val cost : Scenario.t -> ?failure:Failure.t -> Weights.t -> Lexico.t
(** Cost-only wrapper around {!evaluate}. *)

val sweep :
  Scenario.t -> ?exec:Dtr_exec.Exec.t -> Weights.t -> Failure.t list -> Lexico.t array
(** Cost of the setting under each scenario, in order (empty list — empty
    array).  Sweeps share the no-failure routing and re-route only the
    destinations each failure actually affects, so they are much cheaper
    than repeated {!evaluate} calls.

    The whole sweep family takes an optional execution context (default:
    {!Dtr_exec.Exec.default}, i.e. serial unless [DTR_JOBS] is set).  Under
    a parallel context the per-failure evaluations are distributed over a
    domain pool, each domain using its own cached scratch; results are
    written back by scenario index and reduced in order, so every cost is
    {e bit-identical} to the serial path for any job count. *)

val sweep_details :
  Scenario.t -> ?exec:Dtr_exec.Exec.t -> Weights.t -> Failure.t list -> detail list
(** Full per-scenario details of a sweep (without pair delays). *)

type bounded_sweep =
  | Swept of Lexico.t  (** the exact compound, all failures priced *)
  | Aborted_at of Lexico.t
      (** the monotone partial at the abort — a certified componentwise
          lower bound on the full compound *)

val compound_sweep_bounded :
  Scenario.t ->
  ?exec:Dtr_exec.Exec.t ->
  routing_d:Dtr_spf.Routing.t ->
  routing_t:Dtr_spf.Routing.t ->
  ?init:Lexico.t ->
  ?prune:(Lexico.t -> bool) ->
  Weights.t ->
  failures:Failure.t list ->
  bounded_sweep
(** [Swept (add init (compound (sweep ...)))], bitwise (without [init],
    the compound alone), priced from already-computed no-failure bases —
    the move engine ({!Pricer}) passes {!Eval_incr}'s cached ones.  If some
    scenario-order partial [add init (sum of the first k failure costs)]
    satisfies [prune], the rest is never priced and the result is
    [Aborted_at partial]: per-failure costs are componentwise non-negative,
    so the partial is a certified lower bound, and a [prune] built from
    {!Dtr_cost.Lexico.prunes} makes the abort exact.  Serial execution
    aborts mid-sweep; at jobs > 1 everything is priced and the result is
    always [Swept]. *)

val evaluate_from :
  Scenario.t ->
  routing_d:Dtr_spf.Routing.t ->
  routing_t:Dtr_spf.Routing.t ->
  ?failure:Failure.t ->
  Weights.t ->
  detail
(** Price [w] from already-computed no-failure routing bases (the scenario's
    own matrices).  With no [failure] this is a pure assessment — no SPF runs
    at all; under a failure only the destinations whose ECMP DAG lost an arc
    are re-routed ({!Dtr_spf.Routing.with_failed_arcs}).  [w] must be the
    setting the bases were computed from.  Results are bit-identical to
    {!evaluate} on the same inputs.  This is the serve daemon's what-if
    query path: the bases stay resident across events, so a query costs
    milliseconds instead of a cold evaluation. *)

val compound : Lexico.t array -> Lexico.t
(** Componentwise sum over scenarios — [Kfail] of Eq. (4) (or its
    critical-set restriction, Eq. (7)). *)

(**/**)

(** Shared internals of the full and incremental evaluations.  [Eval_incr]
    must produce bit-identical costs, so the per-destination SLA subtotal is
    single-sourced here rather than duplicated. *)
module Internal : sig
  val dest_sla :
    Scenario.t ->
    routing_d:Dtr_spf.Routing.t ->
    arc_delay:float array ->
    dense_rd:float array array ->
    excluded:(int -> bool) ->
    dest:int ->
    on_pair:(int -> int -> float -> unit) ->
    float * int * int
  (** One destination's SLA penalty: a left fold (from [0.], in source
      order) of the pair penalties over the expected-delay DP, plus the
      violation and unreachable-pair counts. *)
end
