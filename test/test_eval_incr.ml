(* Tests for the incremental single-arc evaluation engine: bit-identity with
   the full evaluation (costs, counters, loads — raw float equality, not a
   tolerance), with_changed_arc vs from-scratch routing, engine protocol
   errors, and the move engines against the from-scratch oracle. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Criticality = Dtr_core.Criticality
module Local_search = Dtr_core.Local_search
module Delta_cache = Dtr_core.Delta_cache
module Pricer = Dtr_core.Pricer
module Optimizer = Dtr_core.Optimizer

let scenario_of_seed seed =
  let rng = Rng.create seed in
  let nodes = 8 + Rng.int rng 8 in
  Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
    ~avg_util:(0.3 +. Rng.float rng 0.3)
    rng Gen.Rand_topo

let same_floats name expected got =
  if
    Array.length expected <> Array.length got
    || not (Array.for_all2 (fun a b -> a = b) expected got)
  then QCheck.Test.fail_reportf "%s: arrays not bit-identical" name

let check_against_full scenario engine w =
  let d = Eval.evaluate scenario w in
  let cost = Eval_incr.cost engine in
  if cost.Lexico.lambda <> d.Eval.cost.Lexico.lambda then
    QCheck.Test.fail_reportf "lambda differs: %.17g vs %.17g" cost.Lexico.lambda
      d.Eval.cost.Lexico.lambda;
  if cost.Lexico.phi <> d.Eval.cost.Lexico.phi then
    QCheck.Test.fail_reportf "phi differs: %.17g vs %.17g" cost.Lexico.phi
      d.Eval.cost.Lexico.phi;
  if Eval_incr.violations engine <> d.Eval.violations then
    QCheck.Test.fail_reportf "violations differ";
  if Eval_incr.unreachable_pairs engine <> d.Eval.unreachable_pairs then
    QCheck.Test.fail_reportf "unreachable counts differ";
  same_floats "loads" d.Eval.loads (Eval_incr.loads engine);
  same_floats "throughput loads" d.Eval.throughput_loads
    (Eval_incr.throughput_loads engine);
  true

(* The core property: over a random perturbation sequence with mixed commits
   and rollbacks, every staged trial and every settled state is bit-identical
   to a from-scratch evaluation. *)
let prop_bit_identical =
  QCheck.Test.make ~name:"engine bit-identical to full evaluation" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let scenario = scenario_of_seed seed in
      let m = Scenario.num_arcs scenario in
      let p = scenario.Scenario.params in
      let rng = Rng.create (seed + 1) in
      let w = Weights.random rng ~num_arcs:m ~wmax:p.Scenario.wmax in
      let engine = Eval_incr.create scenario in
      let (_ : Lexico.t) = Eval_incr.anchor engine w in
      let ok = ref (check_against_full scenario engine w) in
      for _ = 1 to 30 do
        if !ok then begin
          let arc = Rng.int rng m in
          let saved = Weights.save_arc w arc in
          Weights.perturb_arc rng w ~arc ~wmax:p.Scenario.wmax;
          let (_ : Lexico.t) = Eval_incr.try_arc engine w ~arc in
          (* staged trial vs full evaluation of the perturbed setting *)
          ok := check_against_full scenario engine w;
          if Rng.float rng 1. < 0.5 then Eval_incr.commit engine
          else begin
            Eval_incr.rollback engine;
            Weights.restore_arc w saved
          end;
          (* settled state vs full evaluation of the surviving setting *)
          ok := !ok && check_against_full scenario engine w
        end
      done;
      !ok)

(* with_changed_arc must agree exactly with a from-scratch compute, for both
   weight increases and decreases. *)
let prop_changed_arc_equivalence =
  QCheck.Test.make ~name:"with_changed_arc equals recompute" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 8 + Rng.int rng 10 in
      let g = Gen.rand rng ~nodes:n ~degree:4. in
      let m = Graph.num_arcs g in
      let weights = Array.init m (fun _ -> 1 + Rng.int rng 12) in
      let base = Routing.compute g ~weights () in
      let arc = Rng.int rng m in
      let old_weight = weights.(arc) in
      weights.(arc) <- 1 + Rng.int rng 12;
      let inc, affected = Routing.with_changed_arc base ~weights ~arc ~old_weight in
      let scratch = Routing.compute g ~weights () in
      let ok = ref true in
      for dest = 0 to n - 1 do
        for src = 0 to n - 1 do
          if Routing.distance inc ~src ~dst:dest <> Routing.distance scratch ~src ~dst:dest
          then ok := false
        done
      done;
      let demands = Array.make_matrix n n 1. in
      for i = 0 to n - 1 do
        demands.(i).(i) <- 0.
      done;
      let l1, _ = Routing.loads inc ~graph:g ~demands () in
      let l2, _ = Routing.loads scratch ~graph:g ~demands () in
      if not (Array.for_all2 (fun a b -> a = b) l1 l2) then ok := false;
      (* the affected list is sound: unaffected destinations share the base
         state physically, not just by value *)
      for dest = 0 to n - 1 do
        if not (List.mem dest affected) then
          if not (Routing.shares_dest inc base ~dest) then ok := false
      done;
      !ok)

let test_protocol_errors () =
  let scenario = Fixtures.diamond_scenario () in
  let engine = Eval_incr.create scenario in
  let m = Scenario.num_arcs scenario in
  let w = Weights.create ~num_arcs:m ~init:1 in
  Alcotest.check_raises "commit without trial"
    (Invalid_argument "Eval_incr.commit: no pending trial") (fun () ->
      Eval_incr.commit engine);
  Alcotest.check_raises "rollback without trial"
    (Invalid_argument "Eval_incr.rollback: no pending trial") (fun () ->
      Eval_incr.rollback engine);
  w.Weights.wd.(0) <- 3;
  let (_ : Lexico.t) = Eval_incr.try_arc engine w ~arc:0 in
  Alcotest.check_raises "double trial"
    (Invalid_argument "Eval_incr.try_arc: a trial is already pending") (fun () ->
      ignore (Eval_incr.try_arc engine w ~arc:0 : Lexico.t));
  Eval_incr.rollback engine;
  w.Weights.wd.(0) <- 1;
  Alcotest.(check bool) "rolled back to committed cost" true
    (Lexico.compare (Eval_incr.cost engine) (Eval.cost scenario w) = 0)

let test_diamond_exact () =
  let scenario = Fixtures.diamond_scenario () in
  let m = Scenario.num_arcs scenario in
  let w = Weights.create ~num_arcs:m ~init:1 in
  let engine = Eval_incr.create scenario in
  let (_ : Lexico.t) = Eval_incr.anchor engine w in
  (* push the delay class off one diamond branch and check the staged cost *)
  w.Weights.wd.(0) <- 7;
  let cost = Eval_incr.try_arc engine w ~arc:0 in
  let full = Eval.cost scenario w in
  Alcotest.(check bool) "staged cost equals full eval" true
    (cost.Lexico.lambda = full.Lexico.lambda && cost.Lexico.phi = full.Lexico.phi);
  Eval_incr.commit engine;
  let d, t = Eval_incr.current_routing engine in
  let full_d =
    Routing.compute scenario.Scenario.graph ~weights:(Weights.delay_of w) ()
  in
  Alcotest.(check int) "committed delay routing matches"
    (Routing.distance full_d ~src:0 ~dst:3)
    (Routing.distance d ~src:0 ~dst:3);
  ignore t

(* Oracle tests for the move engine.  The production engines (Phase 2's and
   the warm start's, {!Dtr_core.Pricer}) and a stateless engine over
   from-scratch [Eval.cost] + [Eval.compound (Eval.sweep ...)] run the same
   search from the same seed, config and starts: every engine layer — the
   incremental pricer, its bounded gate, the bounded sweep from cached
   bases, the delta cache and the dynamic-SPF sweep cache — must be
   invisible, down to the bits of the best cost and the eval count.  The
   suite runs under DTR_JOBS=2 too, so the parallel sweeps are checked
   against the oracle as well. *)

let bits c = (Int64.bits_of_float c.Lexico.lambda, Int64.bits_of_float c.Lexico.phi)

let check_same_search name (a : Local_search.result) (b : Local_search.result) =
  Alcotest.(check bool) (name ^ ": same best weights") true
    (Weights.equal a.Local_search.best b.Local_search.best);
  Alcotest.(check bool) (name ^ ": same best cost bits") true
    (bits a.Local_search.best_cost = bits b.Local_search.best_cost);
  Alcotest.(check int) (name ^ ": same eval count") a.Local_search.evals
    b.Local_search.evals

let search_config (scenario : Scenario.t) =
  let p = scenario.Scenario.params in
  Local_search.
    {
      wmax = p.Scenario.wmax;
      interval = p.Scenario.p2_interval;
      rounds = p.Scenario.p2_rounds;
      c = p.Scenario.c_improvement;
      max_rounds = 3;
      max_sweeps = p.Scenario.p2_max_sweeps;
    }

let oracle_fixture () =
  let scenario = Fixtures.small ~seed:11 () in
  let phase1 = Phase1.run ~rng:(Rng.create 5) scenario in
  let failures =
    List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1)
  in
  (scenario, phase1, failures)

let oracle_kfail scenario w failures = Eval.compound (Eval.sweep scenario w failures)

let test_phase2_engine_oracle () =
  let scenario, phase1, failures = oracle_fixture () in
  let best = phase1.Phase1.best_cost in
  let chi = scenario.Scenario.params.Scenario.chi in
  let feasible n =
    n.Lexico.lambda <= best.Lexico.lambda +. Lexico.lambda_tolerance
    && n.Lexico.phi <= (1. +. chi) *. best.Lexico.phi
  in
  let starts = Array.of_list phase1.Phase1.acceptable in
  let init ~round = fst starts.(round mod Array.length starts) in
  let search engine =
    Local_search.run_engine ~rng:(Rng.create 17) ~num_arcs:(Scenario.num_arcs scenario)
      ~engine ~init (search_config scenario)
  in
  let cache = Delta_cache.create ~capacity:128 in
  let production =
    search (Pricer.engine ~cache scenario (Pricer.Kfail_if feasible) ~failures)
  in
  let oracle =
    search
      (Local_search.eval_engine (fun w ->
           if feasible (Eval.cost scenario w) then Some (oracle_kfail scenario w failures)
           else None))
  in
  check_same_search "phase2" production oracle

let test_warm_engine_oracle () =
  let scenario, phase1, failures = oracle_fixture () in
  let init ~round:_ = phase1.Phase1.best in
  let search engine =
    Local_search.run_engine ~rng:(Rng.create 23) ~num_arcs:(Scenario.num_arcs scenario)
      ~engine ~init (search_config scenario)
  in
  let oracle =
    search
      (Local_search.eval_engine (fun w ->
           Some (Lexico.add (Eval.cost scenario w) (oracle_kfail scenario w failures))))
  in
  (* a cache shared across two runs: the second one is served by it *)
  let cache = Delta_cache.create ~capacity:4096 in
  let run () = search (Pricer.engine ~cache scenario Pricer.Normal_plus_kfail ~failures) in
  check_same_search "warm" (run ()) oracle;
  check_same_search "warm, cache-served rerun" (run ()) oracle;
  (* a new objective: the caller must invalidate the cache *)
  Delta_cache.bump cache;
  let normal_only =
    search (Pricer.engine ~cache scenario Pricer.Normal_plus_kfail ~failures:[])
  in
  check_same_search "warm, no failures" normal_only
    (search (Local_search.eval_engine (fun w -> Some (Eval.cost scenario w))))

(* Golden pin of the end-to-end answers, captured before the move engine was
   unified: one cold optimize and one cached warm start on a fixed
   fixture.  Weights are pinned by the MD5 of their file form, costs by the
   exact bits. *)
let test_golden_pin () =
  let md5 w = Digest.to_hex (Digest.string (Dtr_io.Weights_io.to_string w)) in
  let hex c = Printf.sprintf "%h %h" c.Lexico.lambda c.Lexico.phi in
  let scenario = Fixtures.small ~seed:7 () in
  let sol = Optimizer.optimize ~rng:(Rng.create 2008) scenario in
  let check = Alcotest.(check string) in
  check "regular weights" "44cb67e25c32a0810656bfa22bc68ba8" (md5 sol.Optimizer.regular);
  check "robust weights" "9edd87f4d4c2db2371124baca5f45026" (md5 sol.Optimizer.robust);
  check "regular cost" "0x0p+0 0x1.6b7e56db757e6p+13" (hex sol.Optimizer.regular_cost);
  check "robust normal cost" "0x0p+0 0x1.55f7e40afa0e7p+13"
    (hex sol.Optimizer.robust_normal_cost);
  check "robust fail cost" "0x1.6977667c9ac1p+9 0x1.df639f8b5ec5cp+15"
    (hex sol.Optimizer.robust_fail_cost);
  let warm =
    Optimizer.warm_start ~rng:(Rng.create 11) ~failures:sol.Optimizer.failures
      ~cache:(Delta_cache.create ~capacity:64) ~incumbent:sol.Optimizer.regular scenario
  in
  check "warm weights" "97341836c31316489f701f9f41942788" (md5 warm.Optimizer.weights);
  check "warm objective" "0x1.694dfa2592928p+9 0x1.0c2d01c197751p+16"
    (hex warm.Optimizer.objective);
  check "warm start objective" "0x1.1c81a4953a044p+11 0x1.6f5a98048252p+20"
    (hex warm.Optimizer.start_objective);
  Alcotest.(check int) "warm evals" 2964 warm.Optimizer.warm_evals

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bit_identical;
    QCheck_alcotest.to_alcotest prop_changed_arc_equivalence;
    Alcotest.test_case "engine protocol errors" `Quick test_protocol_errors;
    Alcotest.test_case "diamond exact staged cost" `Quick test_diamond_exact;
    Alcotest.test_case "phase2 engine = oracle" `Quick test_phase2_engine_oracle;
    Alcotest.test_case "warm engine = oracle" `Quick test_warm_engine_oracle;
    Alcotest.test_case "golden pin: optimize + warm" `Quick test_golden_pin;
  ]
