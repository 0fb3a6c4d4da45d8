(* Tests for Dtr_exec: the deterministic domain-pool execution engine.

   The contract under test is determinism — [Exec.map]/[Pool.map] must be
   bit-identical to the serial loop for every job count — plus the pool
   plumbing (chunk planning, exception propagation, re-entrancy, scratch
   ownership) and the parallel failure sweeps built on top of it. *)

module Chunk = Dtr_exec.Chunk
module Pool = Dtr_exec.Pool
module Exec = Dtr_exec.Exec
module Scratch = Dtr_exec.Scratch
module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Optimizer = Dtr_core.Optimizer
module Lexico = Dtr_cost.Lexico

(* Shared pools so the suite does not spawn domains per test case. *)
let pool2 = lazy (Exec.of_jobs 2)
let pool4 = lazy (Exec.of_jobs 4)

let execs () = [ (1, Exec.serial); (2, Lazy.force pool2); (4, Lazy.force pool4) ]

(* ------------------------------------------------------------------ *)
(* Chunk                                                               *)
(* ------------------------------------------------------------------ *)

let test_chunk_partition () =
  (* The chunks must partition [0, items) exactly: contiguous, disjoint,
     nothing dropped — for a spread of item counts and job counts. *)
  List.iter
    (fun (items, jobs) ->
      let plan = Chunk.plan ~items ~jobs in
      let covered = ref 0 in
      for c = 0 to plan.Chunk.count - 1 do
        let lo, hi = Chunk.bounds plan c in
        Alcotest.(check int) "contiguous" !covered lo;
        Alcotest.(check bool) "non-empty" true (hi > lo);
        covered := hi
      done;
      Alcotest.(check int)
        (Printf.sprintf "items=%d jobs=%d fully covered" items jobs)
        items !covered)
    [ (0, 1); (1, 1); (1, 8); (7, 2); (64, 4); (100, 3); (1000, 16) ]

let test_chunk_empty () =
  let plan = Chunk.plan ~items:0 ~jobs:4 in
  Alcotest.(check int) "no chunks for no items" 0 plan.Chunk.count

let test_chunk_invalid () =
  Alcotest.check_raises "negative items"
    (Invalid_argument "Chunk.plan: negative item count") (fun () ->
      ignore (Chunk.plan ~items:(-1) ~jobs:2));
  Alcotest.check_raises "zero jobs"
    (Invalid_argument "Chunk.plan: jobs must be positive") (fun () ->
      ignore (Chunk.plan ~items:10 ~jobs:0));
  let plan = Chunk.plan ~items:10 ~jobs:2 in
  Alcotest.check_raises "chunk id out of range"
    (Invalid_argument "Chunk.bounds: chunk id out of range") (fun () ->
      ignore (Chunk.bounds plan plan.Chunk.count))

(* ------------------------------------------------------------------ *)
(* Pool / Exec determinism                                             *)
(* ------------------------------------------------------------------ *)

(* The qcheck property of the determinism contract: for random workloads,
   [Exec.map] over 1, 2 and 4 domains is bit-identical to [List.map] on the
   calling domain.  [f] mixes integer and float arithmetic so any reordering
   or double-application would show. *)
let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Exec.map at jobs 1/2/4 equals List.map" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 200) (int_range (-1000) 1000))
    (fun xs ->
      let f x = (float_of_int x *. 1.7) +. sqrt (float_of_int (abs x)) in
      let expected = Array.of_list (List.map f xs) in
      let items = Array.of_list xs in
      List.for_all
        (fun (_, exec) ->
          Exec.map exec ~n:(Array.length items) ~f:(fun i -> f items.(i)) = expected)
        (execs ()))

let test_map_empty_and_singleton () =
  List.iter
    (fun (jobs, exec) ->
      Alcotest.(check (array int))
        (Printf.sprintf "empty map, jobs %d" jobs)
        [||]
        (Exec.map exec ~n:0 ~f:(fun i -> i));
      Alcotest.(check (array int))
        (Printf.sprintf "singleton map, jobs %d" jobs)
        [| 7 |]
        (Exec.map exec ~n:1 ~f:(fun i -> i + 7)))
    (execs ())

let test_iter_covers_all_indices () =
  List.iter
    (fun (jobs, exec) ->
      let n = 257 in
      let hits = Array.make n 0 in
      (* Each index is owned by exactly one chunk, so unsynchronised writes
         to distinct slots are safe. *)
      Exec.iter exec ~n ~f:(fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "every index exactly once, jobs %d" jobs)
        true
        (Array.for_all (fun h -> h = 1) hits))
    (execs ())

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun (jobs, exec) ->
      (match Exec.map exec ~n:100 ~f:(fun i -> if i = 63 then raise (Boom i) else i) with
      | (_ : int array) -> Alcotest.failf "jobs %d: expected Boom" jobs
      | exception Boom 63 -> ());
      (* The pool must survive a failed batch and run the next one. *)
      Alcotest.(check (array int))
        (Printf.sprintf "pool usable after failure, jobs %d" jobs)
        [| 0; 1; 2 |]
        (Exec.map exec ~n:3 ~f:(fun i -> i)))
    (execs ())

let test_nested_run_degrades_serially () =
  (* A parallel map whose body itself calls Exec.map on the same context
     must not deadlock: the inner call runs inline on the caller. *)
  let exec = Lazy.force pool2 in
  let outer =
    Exec.map exec ~n:4 ~f:(fun i ->
        Array.fold_left ( + ) 0 (Exec.map exec ~n:5 ~f:(fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested map correct" [| 10; 60; 110; 160 |] outer

let test_scratch_is_per_domain () =
  let slot = Scratch.create (fun () -> ref 0) in
  let exec = Lazy.force pool4 in
  (* Every task bumps this domain's counter; the total over all domains must
     equal the task count even though no slot is shared or locked. *)
  let n = 500 in
  Exec.iter exec ~n ~f:(fun _ -> incr (Scratch.get slot));
  let counts =
    Exec.map exec ~n:(Exec.jobs exec) ~f:(fun _ -> !(Scratch.get slot))
  in
  (* [counts] samples each participating domain at least once; the calling
     domain's slot is read directly. *)
  Alcotest.(check bool) "caller has its own slot" true (!(Scratch.get slot) >= 0);
  Alcotest.(check bool) "scratch counters non-negative" true
    (Array.for_all (fun c -> c >= 0) counts)

let test_exec_of_jobs_one_is_serial () =
  Alcotest.(check int) "of_jobs 1 is serial" 1 (Exec.jobs (Exec.of_jobs 1));
  Alcotest.(check int) "serial is one job" 1 (Exec.jobs Exec.serial);
  Alcotest.(check int) "pool reports its size" 2 (Exec.jobs (Lazy.force pool2))

(* ------------------------------------------------------------------ *)
(* Eval.sweep edge cases, serial and parallel                          *)
(* ------------------------------------------------------------------ *)

let test_sweep_empty_failure_list () =
  let scenario = Fixtures.small () in
  let w = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1 in
  List.iter
    (fun (jobs, exec) ->
      Alcotest.(check int)
        (Printf.sprintf "empty sweep, jobs %d" jobs)
        0
        (Array.length (Eval.sweep scenario ~exec w []));
      Alcotest.(check int)
        (Printf.sprintf "empty sweep details, jobs %d" jobs)
        0
        (List.length (Eval.sweep_details scenario ~exec w [])))
    (execs ())

let test_sweep_disconnecting_failure () =
  (* Line 0-1-2 with all delay traffic into node 2: failing arc 1->2 cuts
     every delay pair.  Serial and parallel sweeps must agree exactly on the
     unreachable count and the cost. *)
  let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 } in
  let g = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2 ] in
  let rd = Dtr_traffic.Matrix.create 3 and rt = Dtr_traffic.Matrix.create 3 in
  Dtr_traffic.Matrix.set rd ~src:0 ~dst:2 10.;
  Dtr_traffic.Matrix.set rd ~src:1 ~dst:2 5.;
  Dtr_traffic.Matrix.set rt ~src:0 ~dst:1 10.;
  let scenario = Scenario.make ~graph:g ~rd ~rt ~params:Fixtures.tiny_params in
  let w = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1 in
  let arc12 = match Graph.find_arc g 1 2 with Some id -> id | None -> assert false in
  let failures = [ Failure.Arc arc12 ] in
  let serial = Eval.sweep_details scenario w failures in
  let unreachable = (List.hd serial).Eval.unreachable_pairs in
  Alcotest.(check int) "both delay pairs cut" 2 unreachable;
  List.iter
    (fun (jobs, exec) ->
      let details = Eval.sweep_details scenario ~exec w failures in
      Alcotest.(check int)
        (Printf.sprintf "unreachable_pairs, jobs %d" jobs)
        unreachable
        (List.hd details).Eval.unreachable_pairs;
      Alcotest.(check bool)
        (Printf.sprintf "cost bit-identical, jobs %d" jobs)
        true
        ((List.hd details).Eval.cost = (List.hd serial).Eval.cost))
    (execs ())

(* ------------------------------------------------------------------ *)
(* Fixed-seed bit-identity of sweeps and of the full pipeline          *)
(* ------------------------------------------------------------------ *)

let sweep_instance kind =
  let rng = Rng.create 7 in
  let scenario =
    match kind with
    | Some k -> Scenario.random_instance ~params:Fixtures.tiny_params ~nodes:12 rng k
    | None ->
        (* the fixed 16-node ISP backbone *)
        let graph = Gen.isp_backbone () in
        let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes:16 ~total:1000. in
        let rd, rt =
          Dtr_traffic.Scaling.calibrate graph ~rd ~rt
            (Dtr_traffic.Scaling.Avg_utilization 0.43)
        in
        Scenario.make ~graph ~rd ~rt ~params:Fixtures.tiny_params
  in
  let w =
    Weights.random rng ~num_arcs:(Scenario.num_arcs scenario) ~wmax:20
  in
  (scenario, w)

let test_sweep_bit_identical_across_jobs () =
  List.iter
    (fun (name, kind) ->
      let scenario, w = sweep_instance kind in
      let failures = Failure.all_single_arcs scenario.Scenario.graph in
      let serial = Eval.sweep scenario ~exec:Exec.serial w failures in
      List.iter
        (fun (jobs, exec) ->
          let par = Eval.sweep scenario ~exec w failures in
          Alcotest.(check bool)
            (Printf.sprintf "%s: sweep at jobs %d bit-identical" name jobs)
            true (par = serial);
          Alcotest.(check bool)
            (Printf.sprintf "%s: compound at jobs %d bit-identical" name jobs)
            true
            (Eval.compound par = Eval.compound serial))
        (execs ()))
    [
      ("rand", Some Gen.Rand_topo);
      ("near", Some Gen.Near_topo);
      ("pl", Some Gen.Pl_topo);
      ("isp", None);
    ]

let test_optimize_bit_identical_across_jobs () =
  (* End-to-end determinism on the ISP backbone: the whole two-phase
     pipeline with four domains must reproduce the serial run exactly —
     weights, costs, eval counts, critical set. *)
  let scenario, _ = sweep_instance None in
  let run exec = Optimizer.optimize ~rng:(Rng.create 16) ~exec scenario in
  let serial = run Exec.serial in
  let parallel = run (Lazy.force pool4) in
  Alcotest.(check bool) "regular weights" true
    (Weights.equal serial.Optimizer.regular parallel.Optimizer.regular);
  Alcotest.(check bool) "robust weights" true
    (Weights.equal serial.Optimizer.robust parallel.Optimizer.robust);
  Alcotest.(check bool) "regular cost" true
    (serial.Optimizer.regular_cost = parallel.Optimizer.regular_cost);
  Alcotest.(check bool) "robust normal cost" true
    (serial.Optimizer.robust_normal_cost = parallel.Optimizer.robust_normal_cost);
  Alcotest.(check bool) "robust fail cost" true
    (serial.Optimizer.robust_fail_cost = parallel.Optimizer.robust_fail_cost);
  Alcotest.(check (list int)) "critical set" serial.Optimizer.critical
    parallel.Optimizer.critical;
  Alcotest.(check int) "phase-1 evals"
    serial.Optimizer.phase1.Dtr_core.Phase1.stats.Dtr_core.Phase1.evals
    parallel.Optimizer.phase1.Dtr_core.Phase1.stats.Dtr_core.Phase1.evals;
  Alcotest.(check int) "phase-1 samples"
    serial.Optimizer.phase1.Dtr_core.Phase1.stats.Dtr_core.Phase1.samples
    parallel.Optimizer.phase1.Dtr_core.Phase1.stats.Dtr_core.Phase1.samples;
  Alcotest.(check int) "phase-2 evals"
    serial.Optimizer.phase2.Dtr_core.Phase2.stats.Dtr_core.Phase2.evals
    parallel.Optimizer.phase2.Dtr_core.Phase2.stats.Dtr_core.Phase2.evals

(* Bounded sweeps stop where they stop serially: a pool prices the failures
   in blocks and truncates at the failure where the bound fires, so the
   search statistics and every pruning and sweep counter read the same at
   every job count, not only the answer. *)
let test_counters_across_jobs () =
  let module M = Dtr_obs.Metric in
  let names =
    [
      "prune.aborts";
      "prune.skips";
      "prune.cache_hits";
      "prune.cache_misses";
      "eval.sweeps";
      "eval.sweep.cache_builds";
      "eval.sweep.cached_evals";
      "eval.sweep.full_evals";
    ]
  in
  let scenario = Fixtures.small ~seed:7 () in
  let run exec =
    List.iter (fun n -> M.Counter.reset (M.Counter.create n)) names;
    let sol = Optimizer.optimize ~rng:(Rng.create 99) ~exec scenario in
    let p2 = sol.Optimizer.phase2.Dtr_core.Phase2.stats in
    ( [
        ("phase2 pruned", p2.Dtr_core.Phase2.pruned);
        ("phase2 evals", p2.Dtr_core.Phase2.evals);
        ("phase2 cache hits", p2.Dtr_core.Phase2.cache_hits);
        ("phase2 cache misses", p2.Dtr_core.Phase2.cache_misses);
      ]
    @ List.map (fun n -> (n, M.Counter.value (M.Counter.create n))) names )
  in
  let was = M.enabled () in
  let serial, parallel =
    Fun.protect
      ~finally:(fun () -> M.set_enabled was)
      (fun () ->
        M.set_enabled true;
        let serial = run Exec.serial in
        (serial, run (Lazy.force pool2)))
  in
  List.iter2
    (fun (name, s) (_, p) -> Alcotest.(check int) (name ^ " at jobs 1 and 2") s p)
    serial parallel;
  Alcotest.(check bool) "the bound fired" true (List.assoc "phase2 pruned" serial > 0)

(* Phase 1b keeps one probe engine per pool domain, for the current
   scenario only: a process that optimizes many scenarios in turn must not
   keep an engine alive for each of them. *)
let test_probe_engines_bounded () =
  let exec = Lazy.force pool2 in
  let scenario i = Fixtures.small ~seed:(300 + i) ~nodes:10 () in
  let run lo hi =
    for i = lo to hi - 1 do
      ignore (Dtr_core.Phase1.run ~rng:(Rng.create i) ~exec (scenario i))
    done;
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let after3 = run 0 3 in
  let after12 = run 3 12 in
  (* what one leaked entry would hold: an engine and the scenario it prices *)
  let one =
    let sc = scenario 99 in
    Obj.reachable_words (Obj.repr (Dtr_core.Eval_incr.create sc, sc))
  in
  if after12 - after3 >= 3 * one then
    Alcotest.failf "live words grew %d -> %d over 9 more scenarios (one engine: %d)"
      after3 after12 one

let suite =
  [
    Alcotest.test_case "chunk partition" `Quick test_chunk_partition;
    Alcotest.test_case "chunk empty" `Quick test_chunk_empty;
    Alcotest.test_case "chunk invalid args" `Quick test_chunk_invalid;
    QCheck_alcotest.to_alcotest prop_map_matches_list_map;
    Alcotest.test_case "map empty and singleton" `Quick test_map_empty_and_singleton;
    Alcotest.test_case "iter covers all indices" `Quick test_iter_covers_all_indices;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "nested run degrades serially" `Quick test_nested_run_degrades_serially;
    Alcotest.test_case "scratch is per-domain" `Quick test_scratch_is_per_domain;
    Alcotest.test_case "of_jobs 1 is serial" `Quick test_exec_of_jobs_one_is_serial;
    Alcotest.test_case "sweep: empty failure list" `Quick test_sweep_empty_failure_list;
    Alcotest.test_case "sweep: disconnecting failure" `Quick test_sweep_disconnecting_failure;
    Alcotest.test_case "sweep bit-identity (rand/near/pl/isp)" `Slow
      test_sweep_bit_identical_across_jobs;
    Alcotest.test_case "optimize bit-identity (ISP, jobs 4)" `Slow
      test_optimize_bit_identical_across_jobs;
    Alcotest.test_case "search counters equal at jobs 1 and 2" `Quick
      test_counters_across_jobs;
    Alcotest.test_case "phase1b probe engines stay bounded" `Quick
      test_probe_engines_bounded;
  ]
