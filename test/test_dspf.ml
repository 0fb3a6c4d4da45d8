(* Tests for the dynamic-SPF failure-sweep engine: bit-identity of repaired
   routing states (distances, ECMP DAGs, loads) and of cached sweep pricing
   (costs, counters, load vectors) against from-scratch recomputation, plus
   a fixed-seed end-to-end optimizer pin, serial and under a parallel
   execution context. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Optimizer = Dtr_core.Optimizer
module Exec = Dtr_exec.Exec

let random_scenario seed =
  let rng = Rng.create seed in
  let kind = if seed mod 2 = 0 then Gen.Rand_topo else Gen.Pl_topo in
  let nodes = 8 + Rng.int rng 10 in
  let scenario =
    Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
      ~avg_util:(0.3 +. Rng.float rng 0.4)
      rng kind
  in
  let w =
    Weights.random rng ~num_arcs:(Graph.num_arcs scenario.Scenario.graph) ~wmax:16
  in
  (scenario, w)

let failed_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun id dead -> if dead then acc := id :: !acc) mask;
  !acc

(* Routing-level identity: for every single-arc failure the repaired state
   must equal a from-scratch Dijkstra with the failure mask — distances and
   every node's ECMP next-hop row, for both weight classes. *)
let prop_repair_routing_identity =
  QCheck.Test.make ~name:"repaired routing bit-identical to from-scratch" ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario, w = random_scenario seed in
      let g = scenario.Scenario.graph in
      let n = Graph.num_nodes g in
      let dense_rd = scenario.Scenario.dense_rd in
      let buffers = Routing.make_buffers g in
      List.iter
        (fun weights ->
          let base = Routing.compute g ~weights ~buffers () in
          List.iter
            (fun f ->
              let mask = Failure.mask g f in
              let failed = failed_of_mask mask in
              let repaired =
                Routing.with_failed_arcs ~buffers base ~weights ~disabled:mask
                  ~failed
              in
              let scratch =
                Routing.compute g ~weights ~buffers ~disabled:mask ()
              in
              for dest = 0 to n - 1 do
                for node = 0 to n - 1 do
                  if
                    Routing.distance repaired ~src:node ~dst:dest
                    <> Routing.distance scratch ~src:node ~dst:dest
                  then
                    QCheck.Test.fail_reportf
                      "distance(%d->%d) differs after failing arcs %s" node
                      dest
                      (String.concat "," (List.map string_of_int failed));
                  if
                    Routing.next_hops repaired ~dest ~node
                    <> Routing.next_hops scratch ~dest ~node
                  then
                    QCheck.Test.fail_reportf
                      "next hops (%d->%d) differ after failing arcs %s" node
                      dest
                      (String.concat "," (List.map string_of_int failed))
                done
              done;
              let loads_r, un_r =
                Routing.loads repaired ~graph:g ~demands:dense_rd ()
              in
              let loads_s, un_s =
                Routing.loads scratch ~graph:g ~demands:dense_rd ()
              in
              if un_r <> un_s || loads_r <> loads_s then
                QCheck.Test.fail_reportf
                  "repaired loads not bit-identical after failing arcs %s"
                  (String.concat "," (List.map string_of_int failed)))
            (Failure.all_single_arcs g))
        [ Weights.delay_of w; Weights.throughput_of w ];
      true)

(* Sweep-level identity: the cached engine's per-failure details (costs,
   violation and unreachable counts, load vectors) must match pricing each
   failure independently from scratch — full Dijkstra, full assessment. *)
let prop_cached_sweep_identity =
  QCheck.Test.make ~name:"cached sweep bit-identical to independent pricing"
    ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario, w = random_scenario seed in
      let failures = Failure.all_single_arcs scenario.Scenario.graph in
      let swept = Eval.sweep_details scenario ~exec:Exec.serial w failures in
      List.iter2
        (fun f (d : Eval.detail) ->
          let full = Eval.evaluate scenario ~failure:f w in
          if
            d.Eval.cost.Lexico.lambda <> full.Eval.cost.Lexico.lambda
            || d.Eval.cost.Lexico.phi <> full.Eval.cost.Lexico.phi
            || d.Eval.violations <> full.Eval.violations
            || d.Eval.unreachable_pairs <> full.Eval.unreachable_pairs
            || d.Eval.loads <> full.Eval.loads
            || d.Eval.throughput_loads <> full.Eval.throughput_loads
          then
            QCheck.Test.fail_reportf "cached pricing differs from from-scratch")
        failures swept;
      true)

(* Node failures must take the fallback path (cached rows are invalid when a
   node's demands disappear) and still match from-scratch pricing. *)
let prop_node_failure_fallback =
  QCheck.Test.make ~name:"node failures price identically through the sweep"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario, w = random_scenario seed in
      let failures = Failure.all_single_nodes scenario.Scenario.graph in
      let swept = Eval.sweep_details scenario ~exec:Exec.serial w failures in
      List.iter2
        (fun f (d : Eval.detail) ->
          let full = Eval.evaluate scenario ~failure:f w in
          if d.Eval.cost <> full.Eval.cost || d.Eval.violations <> full.Eval.violations
          then QCheck.Test.fail_reportf "node-failure pricing differs")
        failures swept;
      true)

(* Fixed-seed end-to-end pin: the optimizer must land on the weights and
   costs captured when the from-scratch failure path was still selectable
   (both paths gave these answers), serially and under a two-domain pool.
   Weights are pinned by the MD5 of their file form, costs by the exact
   bits. *)
let test_e2e_engine_identity () =
  let md5 w = Digest.to_hex (Digest.string (Dtr_io.Weights_io.to_string w)) in
  let hex c = Printf.sprintf "%h %h" c.Lexico.lambda c.Lexico.phi in
  let scenario = Fixtures.small ~seed:2008 ~nodes:10 ~avg_util:0.45 () in
  let solve exec = Optimizer.optimize ~rng:(Rng.create 7) ~exec scenario in
  let check name (sol : Optimizer.solution) =
    let check = Alcotest.(check string) in
    check (name ^ ": regular weights") "3264f8805348ec143806398333ca384f"
      (md5 sol.Optimizer.regular);
    check (name ^ ": robust weights") "5137aead88a5fc6ef712e24f009c28d6"
      (md5 sol.Optimizer.robust);
    check (name ^ ": regular cost") "0x1.9p+7 0x1.e8ebdd505505dp+13"
      (hex sol.Optimizer.regular_cost);
    check (name ^ ": robust normal cost") "0x1.9p+7 0x1.f1f23c46b72b7p+13"
      (hex sol.Optimizer.robust_normal_cost);
    check (name ^ ": robust fail cost") "0x1.45e6d9c7809cep+10 0x1.b939d032cdfb4p+16"
      (hex sol.Optimizer.robust_fail_cost);
    Alcotest.(check (list int))
      (name ^ ": critical set") [ 1; 8; 19; 33; 35; 39 ] sol.Optimizer.critical
  in
  check "jobs=1" (solve Exec.serial);
  check "jobs=2" (solve (Exec.of_jobs 2))

(* Every failure of a sweep is counted in the eval.sweep.* counters: one
   cache build, every arc failure priced from it. *)
let test_stats_report_engine_state () =
  let scenario = Fixtures.small ~seed:5 ~nodes:8 () in
  let rng = Rng.create 11 in
  let w = Weights.random rng ~num_arcs:(Scenario.num_arcs scenario) ~wmax:16 in
  let failures = Failure.all_single_arcs scenario.Scenario.graph in
  let counter name = Dtr_obs.Metric.Counter.create name in
  let names =
    [ "eval.sweeps"; "eval.sweep.cache_builds"; "eval.sweep.cached_evals";
      "eval.sweep.full_evals" ]
  in
  let value name = Dtr_obs.Metric.Counter.value (counter name) in
  List.iter (fun n -> Dtr_obs.Metric.Counter.reset (counter n)) names;
  let (_ : Eval.detail list) = Eval.sweep_details scenario ~exec:Exec.serial w failures in
  Alcotest.(check int) "one sweep recorded" 1 (value "eval.sweeps");
  Alcotest.(check int) "one cache build" 1 (value "eval.sweep.cache_builds");
  Alcotest.(check int)
    "every arc failure priced from the cache"
    (List.length failures)
    (value "eval.sweep.cached_evals");
  Alcotest.(check int) "none from scratch" 0 (value "eval.sweep.full_evals")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_repair_routing_identity;
    QCheck_alcotest.to_alcotest prop_cached_sweep_identity;
    QCheck_alcotest.to_alcotest prop_node_failure_fallback;
    Alcotest.test_case "fixed-seed e2e pin (jobs=1/2)" `Slow
      test_e2e_engine_identity;
    Alcotest.test_case "sweep stats reflect engine state" `Quick
      test_stats_report_engine_state;
  ]
