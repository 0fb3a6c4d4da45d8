module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure
module Metric = Dtr_obs.Metric
module Span = Dtr_obs.Span
module Trace = Dtr_obs.Trace
module Convergence = Dtr_obs.Convergence

type stats = {
  evals : int;
  sweeps : int;
  rounds : int;
  pruned : int;
  skipped : int;
  cache_hits : int;
  cache_misses : int;
}

type output = {
  robust : Weights.t;
  fail_cost : Lexico.t;
  normal_cost : Lexico.t;
  stats : stats;
}

let c_evals = Metric.Counter.create "phase2.evals"
let c_sweeps = Metric.Counter.create "phase2.sweeps"
let c_rounds = Metric.Counter.create "phase2.rounds"

let run ~rng ?exec ?(fast = false) (scenario : Scenario.t) ~(phase1 : Phase1.output)
    ~failures =
  Span.with_ ~name:"phase2" @@ fun () ->
  if Trace.enabled () then Trace.emit_phase ~name:"phase2";
  if failures = [] then invalid_arg "Phase2.run: no failure scenarios";
  let p = scenario.Scenario.params in
  let num_arcs = Scenario.num_arcs scenario in
  let best_cost = phase1.Phase1.best_cost in
  let starts = Array.of_list phase1.Phase1.acceptable in
  if Array.length starts = 0 then invalid_arg "Phase2.run: no acceptable starting setting";
  (* Each Phase-2 evaluation prices the setting under every scenario of the
     optimized failure set; infeasibility w.r.t. Eqs. (5)-(6) short-circuits
     before the expensive sweep. *)
  let feasible normal =
    normal.Lexico.lambda <= best_cost.Lexico.lambda +. Lexico.lambda_tolerance
    && normal.Lexico.phi <= (1. +. p.Scenario.chi) *. best_cost.Lexico.phi
  in
  let cache = Delta_cache.create ~capacity:128 in
  let engine =
    Pricer.engine ?exec ~cache scenario (Pricer.Kfail_if feasible) ~failures
  in
  (* --fast proposal filter: static per-arc importance — the larger of the
     Phase-1 normalised criticality (either class) and the utilisation of
     the arc under the Phase-1 best — so the ramped skip cuts arcs that are
     neither critical to failures nor loaded under normal conditions. *)
  (* The skip cap scales with the proposal space: on small topologies the
     ramp's skipped arcs buy too few avoided sweeps to cover the extra
     rounds they force (the 160-arc backbone tier regressed to 0.75x under
     a flat 0.6 cap), so the filter switches off below [skip_floor] arcs
     and ramps linearly to full strength at [skip_full]. *)
  let skip_floor = 192 and skip_full = 288 in
  let max_skip =
    0.6
    *. Float.max 0.
         (Float.min 1.
            (float_of_int (num_arcs - skip_floor)
            /. float_of_int (skip_full - skip_floor)))
  in
  let filter =
    if (not fast) || max_skip <= 0. then None
    else begin
      let crit = phase1.Phase1.criticality in
      let detail = Eval.evaluate scenario phase1.Phase1.best in
      let cap = Dtr_topology.Graph.arc_capacities scenario.Scenario.graph in
      let score =
        Array.init num_arcs (fun a ->
            Float.max
              (Float.max crit.Criticality.norm_lambda.(a)
                 crit.Criticality.norm_phi.(a))
              (detail.Eval.loads.(a) /. cap.(a)))
      in
      Some Local_search.{ score; max_skip }
    end
  in
  let config =
    Local_search.
      {
        wmax = p.Scenario.wmax;
        interval = p.Scenario.p2_interval;
        rounds = p.Scenario.p2_rounds;
        c = p.Scenario.c_improvement;
        max_rounds = 5 * p.Scenario.p2_rounds;
        max_sweeps = p.Scenario.p2_max_sweeps;
      }
  in
  let init ~round =
    let w, _ = starts.(round mod Array.length starts) in
    w
  in
  let search =
    Convergence.with_series ~name:"phase2" (fun () ->
        Local_search.run_engine ~rng ~num_arcs ~engine ~init ?filter config)
  in
  if Metric.enabled () then begin
    Metric.Counter.add c_evals search.Local_search.evals;
    Metric.Counter.add c_sweeps search.Local_search.sweeps;
    Metric.Counter.add c_rounds search.Local_search.rounds_run
  end;
  let robust = search.Local_search.best in
  let cstats = Delta_cache.stats cache in
  {
    robust;
    fail_cost = search.Local_search.best_cost;
    normal_cost = Eval.cost scenario robust;
    stats =
      {
        evals = search.Local_search.evals;
        sweeps = search.Local_search.sweeps;
        rounds = search.Local_search.rounds_run;
        pruned = search.Local_search.pruned;
        skipped = search.Local_search.skipped;
        cache_hits = cstats.Delta_cache.hits;
        cache_misses = cstats.Delta_cache.misses;
      };
  }
