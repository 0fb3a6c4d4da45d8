(* Tests for the move-space pruning engine: lexicographic early-abort
   pricing (try_arc_bounded / compound_sweep_bounded) must be *exact* —
   [Some] carries the bit-identical full cost, [None] certifies the
   candidate would have been rejected — the delta cache must only ever
   return previously computed values, end-to-end optimization must keep its
   golden answers, and --fast must stay within its documented quality
   envelope. *)

module Rng = Dtr_util.Rng
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Delta_cache = Dtr_core.Delta_cache
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Optimizer = Dtr_core.Optimizer

let scenario_of_seed seed =
  let rng = Rng.create seed in
  let nodes = 8 + Rng.int rng 8 in
  Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
    ~avg_util:(0.3 +. Rng.float rng 0.3)
    rng Gen.Rand_topo

let same_cost a b = a.Lexico.lambda = b.Lexico.lambda && a.Lexico.phi = b.Lexico.phi

(* Lexico.prunes soundness: whenever it fires on a partial, no completion
   (componentwise >= the partial) can be accepted against the bound. *)
let prop_prunes_sound =
  QCheck.Test.make ~name:"prunes partial => completion rejected" ~count:500
    QCheck.(
      quad (float_range 0. 20.) (float_range 0. 1000.) (float_range 0. 20.)
        (pair (float_range 0. 1000.) (pair (float_range 0. 5.) (float_range 0. 500.))))
    (fun (pl, pp, bl, (bp, (dl, dp))) ->
      let partial = Lexico.make ~lambda:pl ~phi:pp in
      let bound = Lexico.make ~lambda:bl ~phi:bp in
      let completion = Lexico.make ~lambda:(pl +. dl) ~phi:(pp +. dp) in
      QCheck.assume (Lexico.prunes partial ~than:bound);
      not (Lexico.is_better completion ~than:bound))

(* The engine property, exercised in the exact shape the searches use it:
   two engines walk the same perturbation sequence, one pricing in full and
   one bounded by the running incumbent.  [Some] must be bitwise the full
   cost; [None] may only appear when the full cost would have been
   rejected; accepted moves (which are always [Some]) keep the two engines
   anchored at the same state. *)
let prop_try_arc_bounded_exact =
  QCheck.Test.make ~name:"try_arc_bounded = try_arc or certified reject"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let scenario = scenario_of_seed seed in
      let m = Scenario.num_arcs scenario in
      let p = scenario.Scenario.params in
      let rng = Rng.create (seed + 1) in
      let w = Weights.random rng ~num_arcs:m ~wmax:p.Scenario.wmax in
      let e_ref = Eval_incr.create scenario in
      let e_b = Eval_incr.create scenario in
      let cur = ref (Eval_incr.anchor e_ref w) in
      let (_ : Lexico.t) = Eval_incr.anchor e_b w in
      let pruned = ref 0 and ok = ref true in
      for _ = 1 to 40 do
        if !ok then begin
          let arc = Rng.int rng m in
          let saved = Weights.save_arc w arc in
          Weights.perturb_arc rng w ~arc ~wmax:p.Scenario.wmax;
          let full = Eval_incr.try_arc e_ref w ~arc in
          let bounded =
            Eval_incr.try_arc_bounded e_b
              ~prune:(fun partial -> Lexico.prunes partial ~than:!cur)
              w ~arc
          in
          (match bounded with
          | Some c -> if not (same_cost c full) then ok := false
          | None ->
              incr pruned;
              if Lexico.is_better full ~than:!cur then ok := false);
          if Lexico.is_better full ~than:!cur then begin
            Eval_incr.commit e_ref;
            Eval_incr.commit e_b;
            cur := full
          end
          else begin
            Eval_incr.rollback e_ref;
            Eval_incr.rollback e_b;
            Weights.restore_arc w saved
          end
        end
      done;
      (* settled states agree after the mixed walk *)
      !ok && same_cost (Eval_incr.cost e_ref) (Eval_incr.cost e_b))

let prop_sweep_bounded_exact =
  QCheck.Test.make ~name:"compound_sweep_bounded = add init full sweep"
    ~count:20
    QCheck.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, mode) ->
      let scenario = scenario_of_seed seed in
      let m = Scenario.num_arcs scenario in
      let p = scenario.Scenario.params in
      let rng = Rng.create (seed + 3) in
      let w = Weights.random rng ~num_arcs:m ~wmax:p.Scenario.wmax in
      let e = Eval_incr.create scenario in
      let normal = Eval_incr.anchor e w in
      let routing_d, routing_t = Eval_incr.current_routing e in
      let failures =
        List.init (min m 6) (fun _ -> Failure.Arc (Rng.int rng m))
        |> List.sort_uniq compare
      in
      let full = Eval.compound (Eval.sweep scenario w failures) in
      (* three bound regimes: prune nothing, prune everything, realistic *)
      let init, bound =
        match mode with
        | 0 -> (Lexico.zero, Lexico.make ~lambda:infinity ~phi:infinity)
        | 1 -> (normal, Lexico.zero)
        | _ ->
            ( Lexico.zero,
              Lexico.make ~lambda:full.Lexico.lambda
                ~phi:(full.Lexico.phi /. 2.) )
      in
      let bounded =
        Eval.compound_sweep_bounded scenario ~routing_d ~routing_t ~init
          ~prune:(fun partial -> Lexico.prunes partial ~than:bound)
          w ~failures
      in
      let expected = Lexico.add init full in
      match bounded with
      | Eval.Swept c -> same_cost c expected
      | Eval.Aborted_at partial ->
          (* the abort partial is a certified componentwise lower bound,
             and the abort itself proves the full compound can't win *)
          partial.Lexico.lambda <= expected.Lexico.lambda
          && partial.Lexico.phi <= expected.Lexico.phi
          && not (Lexico.is_better expected ~than:bound))

let test_delta_cache () =
  let rng = Rng.create 31 in
  let m = 12 in
  let w = Weights.random rng ~num_arcs:m ~wmax:20 in
  let t = Delta_cache.create ~capacity:4 in
  let c = Delta_cache.cursor (Some t) in
  Delta_cache.start c w;
  (* stage a single-arc move: the cursor keys it by a rolling-hash shift *)
  let arc = 5 in
  w.Weights.wd.(arc) <- w.Weights.wd.(arc) + 1;
  w.Weights.wt.(arc) <- w.Weights.wt.(arc) + 2;
  Delta_cache.stage c w ~arc;
  let cost = Lexico.make ~lambda:1.5 ~phi:42. in
  (* a lower-bound entry upgrades to the exact cost, never the reverse *)
  let partial = Lexico.make ~lambda:1.5 ~phi:17. in
  Delta_cache.record c w (Delta_cache.Lower partial);
  Delta_cache.commit c;
  (* a fresh cursor re-keys the same vector from scratch: the shifted key
     must agree with the full hash *)
  let c = Delta_cache.cursor (Some t) in
  Delta_cache.start c w;
  (match Delta_cache.lookup c w with
  | Some (Delta_cache.Lower p) ->
      Alcotest.(check bool) "lower hit returns stored partial" true
        (same_cost p partial)
  | Some (Delta_cache.Full _) -> Alcotest.fail "expected a lower-bound entry"
  | None -> Alcotest.fail "expected a lower-bound hit (shift = full hash)");
  Delta_cache.record c w (Delta_cache.Full cost);
  Delta_cache.record c w (Delta_cache.Lower partial);
  (match Delta_cache.lookup c w with
  | Some (Delta_cache.Full x) ->
      Alcotest.(check bool) "hit returns stored cost" true (same_cost x cost)
  | Some (Delta_cache.Lower _) ->
      Alcotest.fail "a lower bound must not downgrade a full entry"
  | None -> Alcotest.fail "expected a hit");
  (* exactness: only the very vector that was stored hits, even when the
     caller mutates it behind the cursor's back (same key, other vector) *)
  w.Weights.wd.(0) <- w.Weights.wd.(0) + 1;
  Alcotest.(check bool) "mutated vector misses on the same key" true
    (Delta_cache.lookup c w = None);
  w.Weights.wd.(0) <- w.Weights.wd.(0) - 1;
  Delta_cache.bump t;
  Alcotest.(check bool) "bump invalidates resident entries" true
    (Delta_cache.lookup c w = None);
  let s = Delta_cache.stats t in
  Alcotest.(check int) "one verified full hit" 1 s.Delta_cache.hits;
  Alcotest.(check int) "one verified lower hit" 1 s.Delta_cache.lower_hits;
  Alcotest.(check int) "two misses" 2 s.Delta_cache.misses;
  (* without a cache the cursor is inert *)
  let off = Delta_cache.cursor None in
  Delta_cache.start off w;
  Delta_cache.record off w (Delta_cache.Full cost);
  Alcotest.(check bool) "no cache, no hit" true (Delta_cache.lookup off w = None)

(* End-to-end golden pin of the pruned two-phase optimization, captured
   when pruning still had an off switch and both paths gave these answers:
   weights by the MD5 of their file form, costs by the exact bits.  The
   full-pricing reference lives on as the oracle engines of
   [Test_eval_incr]. *)
let test_optimize_pin () =
  let md5 w = Digest.to_hex (Digest.string (Dtr_io.Weights_io.to_string w)) in
  let hex c = Printf.sprintf "%h %h" c.Lexico.lambda c.Lexico.phi in
  let scenario = Fixtures.small ~seed:7 () in
  let sol = Optimizer.optimize ~rng:(Rng.create 99) scenario in
  let check = Alcotest.(check string) in
  check "regular weights" "989366abb908403335db00c978460174" (md5 sol.Optimizer.regular);
  check "robust weights" "fcbfe8b7c87335b461ea8da2ed6fdeeb" (md5 sol.Optimizer.robust);
  check "regular cost" "0x0p+0 0x1.4219c1013fc4p+13" (hex sol.Optimizer.regular_cost);
  check "robust normal cost" "0x0p+0 0x1.3dd197e015649p+13"
    (hex sol.Optimizer.robust_normal_cost);
  check "robust fail cost" "0x1.322b30bac25p+9 0x1.b151243ee187cp+15"
    (hex sol.Optimizer.robust_fail_cost);
  Alcotest.(check (list int)) "critical set" [ 12; 16; 19; 26; 27 ] sol.Optimizer.critical;
  Alcotest.(check int) "phase2 eval count" 1282
    sol.Optimizer.phase2.Phase2.stats.Phase2.evals

(* A warm start rerun on the cache its first run filled must follow the
   identical trajectory, served by cache hits. *)
let test_warm_start_rerun () =
  let scenario = Fixtures.small ~seed:13 () in
  let phase1 = Phase1.run ~rng:(Rng.create 3) scenario in
  let failures =
    List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1)
  in
  (* Capacity must cover the run's fully-priced vectors: a too-small LRU
     thrashes under the cyclic re-probe of a repeated trajectory (0 hits)
     without ever affecting exactness. *)
  let cache = Delta_cache.create ~capacity:4096 in
  let run () =
    Optimizer.warm_start ~rng:(Rng.create 23) ~failures ~cache
      ~incumbent:phase1.Phase1.best scenario
  in
  let first = run () in
  let again = run () in
  Alcotest.(check bool) "same weights (warm cache)" true
    (Weights.equal first.Optimizer.weights again.Optimizer.weights);
  Alcotest.(check bool) "same objective (warm cache)" true
    (same_cost first.Optimizer.objective again.Optimizer.objective);
  let s = Delta_cache.stats cache in
  Alcotest.(check bool) "warm cache produced hits" true (s.Delta_cache.hits > 0)

(* --fast changes the trajectory by design; it must still (a) satisfy the
   normal-conditions constraints, (b) never end above its own starting
   point, and (c) stay within a coarse quality envelope of the exact
   search. *)
let test_fast_quality () =
  let scenario = Fixtures.small ~seed:21 () in
  let phase1 = Phase1.run ~rng:(Rng.create 8) scenario in
  let failures =
    List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1)
  in
  let exact = Phase2.run ~rng:(Rng.create 14) scenario ~phase1 ~failures in
  let fast = Phase2.run ~rng:(Rng.create 14) ~fast:true scenario ~phase1 ~failures in
  let p = scenario.Scenario.params in
  let best = phase1.Phase1.best_cost in
  Alcotest.(check bool) "fast solution satisfies Eq. (5)" true
    (fast.Phase2.normal_cost.Lexico.lambda
    <= best.Lexico.lambda +. Lexico.lambda_tolerance);
  Alcotest.(check bool) "fast solution satisfies Eq. (6)" true
    (fast.Phase2.normal_cost.Lexico.phi
    <= (1. +. p.Scenario.chi) *. best.Lexico.phi +. 1e-9);
  (* no worse than the best Phase-1 start it searched from *)
  let start_w, _ = List.hd phase1.Phase1.acceptable in
  let start_kfail =
    Eval.compound (Eval.sweep scenario start_w failures)
  in
  Alcotest.(check bool) "fast improves on its starting point" true
    (not (Lexico.is_better start_kfail ~than:fast.Phase2.fail_cost));
  Alcotest.(check bool) "fast quality within 2x of exact (phi)" true
    (fast.Phase2.fail_cost.Lexico.phi
    <= (2. *. exact.Phase2.fail_cost.Lexico.phi) +. 1e-9)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_prunes_sound;
    QCheck_alcotest.to_alcotest prop_try_arc_bounded_exact;
    QCheck_alcotest.to_alcotest prop_sweep_bounded_exact;
    Alcotest.test_case "delta cache exactness" `Quick test_delta_cache;
    Alcotest.test_case "optimize golden pin (pruned)" `Quick test_optimize_pin;
    Alcotest.test_case "warm start rerun on a warm cache" `Quick test_warm_start_rerun;
    Alcotest.test_case "--fast quality envelope" `Quick test_fast_quality;
  ]
