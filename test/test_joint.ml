(* Tests for Dtr_core.Joint_failure: multi-arc incremental repair identity
   (random batches including bridges and full node isolation), the sampled
   two-link event generator, cascading expansion, criticality attribution,
   and fixed-seed end-to-end SRLG optimization under a parallel pool. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Srlg = Dtr_topology.Srlg
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Joint_failure = Dtr_core.Joint_failure
module Optimizer = Dtr_core.Optimizer
module Exec = Dtr_exec.Exec

let random_scenario seed =
  let rng = Rng.create seed in
  let nodes = 8 + Rng.int rng 8 in
  let scenario =
    Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
      ~avg_util:(0.3 +. Rng.float rng 0.4)
      rng Dtr_topology.Gen.Rand_topo
  in
  let w =
    Weights.random rng ~num_arcs:(Graph.num_arcs scenario.Scenario.graph) ~wmax:16
  in
  (scenario, w)

let representative_links g =
  Array.to_list (Graph.arcs g)
  |> List.filter_map (fun a ->
         if a.Graph.rev < 0 || a.Graph.id < a.Graph.rev then Some a.Graph.id
         else None)
  |> Array.of_list

(* Random joint events stressing every repair regime: small batches (repaired
   incrementally), a full node isolation (bridges/disconnection: the node's
   destinations become unreachable), and a batch wide enough to cross the
   size gate back onto the from-scratch path. *)
let random_batches rng g =
  let links = representative_links g in
  let both id =
    let a = Graph.arc g id in
    if a.Graph.rev >= 0 then [ a.Graph.id; a.Graph.rev ] else [ a.Graph.id ]
  in
  let batch k =
    let idx = Rng.sample_without_replacement rng k (Array.length links) in
    Failure.Arcs
      (List.sort_uniq compare
         (Array.to_list idx |> List.concat_map (fun i -> both links.(i))))
  in
  let isolate u =
    let row off ids = Array.to_list (Array.sub ids off.(u) (off.(u + 1) - off.(u))) in
    Failure.Arcs
      (List.sort_uniq compare
         (row (Graph.out_offsets g) (Graph.out_csr g)
         @ row (Graph.in_offsets g) (Graph.in_csr g)))
  in
  [
    batch 1;
    batch 2;
    batch 3;
    isolate (Rng.int rng (Graph.num_nodes g));
    batch (Array.length links / 2);
  ]

let failed_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun id dead -> if dead then acc := id :: !acc) mask;
  !acc

(* Routing-level identity: repairing an arbitrary deleted-arc batch must be
   bit-identical to a from-scratch Dijkstra under the same mask — distances,
   ECMP rows, and loads — whichever side of the batch-size gate the event
   lands on. *)
let prop_multi_arc_repair_identity =
  QCheck.Test.make ~name:"multi-arc repair bit-identical to from-scratch"
    ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario, w = random_scenario seed in
      let g = scenario.Scenario.graph in
      let n = Graph.num_nodes g in
      let rng = Rng.create (seed + 17) in
      let buffers = Routing.make_buffers g in
      List.iter
        (fun weights ->
          let batches = random_batches rng g in
          (* the widest batch takes the recompute side of the size gate *)
          if
            not
              (List.exists
                 (fun f ->
                   8 * List.length (Joint_failure.members g f) >= Graph.num_arcs g)
                 batches)
          then QCheck.Test.fail_reportf "no batch reaches an eighth of the arcs";
          let base = Routing.compute g ~weights ~buffers () in
          List.iter
            (fun f ->
              let mask = Failure.mask g f in
              let failed = failed_of_mask mask in
              let repaired =
                Routing.with_failed_arcs ~buffers base ~weights
                  ~disabled:mask ~failed
              in
              let scratch =
                Routing.compute g ~weights ~buffers ~disabled:mask ()
              in
              for dest = 0 to n - 1 do
                for node = 0 to n - 1 do
                  if
                    Routing.distance repaired ~src:node ~dst:dest
                    <> Routing.distance scratch ~src:node ~dst:dest
                    || Routing.next_hops repaired ~dest ~node
                       <> Routing.next_hops scratch ~dest ~node
                  then
                    QCheck.Test.fail_reportf
                      "routing differs (%d->%d) after failing %s" node dest
                      (Failure.name g f)
                done
              done;
              let loads_r, un_r =
                Routing.loads repaired ~graph:g
                  ~demands:scenario.Scenario.dense_rd ()
              in
              let loads_s, un_s =
                Routing.loads scratch ~graph:g
                  ~demands:scenario.Scenario.dense_rd ()
              in
              if un_r <> un_s || loads_r <> loads_s then
                QCheck.Test.fail_reportf "loads differ after failing %s"
                  (Failure.name g f))
            batches)
        [ Weights.delay_of w; Weights.throughput_of w ];
      true)

(* Sweep-level identity over the three joint-event classes: the incremental
   sweep must price SRLG cuts, sampled pairs, and cascades exactly as
   independent from-scratch evaluations do. *)
let prop_joint_sweep_identity =
  QCheck.Test.make ~name:"joint-event sweep bit-identical to from-scratch"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario, w = random_scenario seed in
      let g = scenario.Scenario.graph in
      let rng = Rng.create (seed + 31) in
      let score = Array.make (Graph.num_arcs g) 1. in
      let events =
        Srlg.failures (Srlg.geographic ~radius:0.25 g)
        @ Joint_failure.two_link ~rng ~samples:6 ~score g
        @ Joint_failure.cascade_all ~exec:Exec.serial ~trip:0.9 scenario w
            [ Failure.Arc 0; Failure.Edge 0 ]
      in
      let swept = Eval.sweep_details scenario ~exec:Exec.serial w events in
      List.iter2
        (fun f (d : Eval.detail) ->
          let full = Eval.evaluate scenario ~failure:f w in
          if
            d.Eval.cost <> full.Eval.cost
            || d.Eval.violations <> full.Eval.violations
            || d.Eval.unreachable_pairs <> full.Eval.unreachable_pairs
            || d.Eval.loads <> full.Eval.loads
            || d.Eval.throughput_loads <> full.Eval.throughput_loads
          then
            QCheck.Test.fail_reportf "joint event %s priced differently"
              (Failure.name g f))
        events swept;
      true)

(* --- members ------------------------------------------------------------- *)

let square () =
  let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 } in
  Graph.of_edges ~n:4 [ edge 0 1; edge 1 2; edge 2 3; edge 3 0 ]

let test_members () =
  let g = square () in
  Alcotest.(check (list int)) "edge covers both directions" [ 0; 1 ]
    (Joint_failure.members g (Failure.Edge 0));
  Alcotest.(check (list int)) "arcs as given" [ 2; 5 ]
    (Joint_failure.members g (Failure.Arcs [ 5; 2 ]));
  Alcotest.(check (list int)) "node takes every incident arc" [ 0; 1; 2; 3 ]
    (Joint_failure.members g (Failure.Node 1))

(* --- two-link sampler ---------------------------------------------------- *)

let test_two_link_events () =
  let g = square () in
  let score = Array.make (Graph.num_arcs g) 1. in
  let events = Joint_failure.two_link ~rng:(Rng.create 5) ~samples:3 ~score g in
  Alcotest.(check int) "requested sample count" 3 (List.length events);
  let pairs = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match f with
      | Failure.Arcs arcs ->
          Alcotest.(check int) "both directions of both links" 4
            (List.length arcs);
          Alcotest.(check (list int)) "sorted arc ids" (List.sort compare arcs)
            arcs;
          List.iter
            (fun id ->
              let rev = (Graph.arc g id).Graph.rev in
              Alcotest.(check bool) "reverse included" true (List.mem rev arcs))
            arcs;
          let links = List.filter (fun id -> id < (Graph.arc g id).Graph.rev) arcs in
          Alcotest.(check bool) "distinct links" true
            (List.length links = 2 && not (Hashtbl.mem pairs links));
          Hashtbl.add pairs links ()
      | _ -> Alcotest.fail "expected an Arcs event")
    events;
  (* deterministic for a given seed *)
  let again = Joint_failure.two_link ~rng:(Rng.create 5) ~samples:3 ~score g in
  Alcotest.(check bool) "same seed, same events" true (events = again);
  (* asking for every pair exhausts the pair space exactly once (the
     deterministic top-up path) *)
  let all = Joint_failure.two_link ~rng:(Rng.create 6) ~samples:99 ~score g in
  Alcotest.(check int) "capped at the distinct pair count" 6 (List.length all)

let test_two_link_validation () =
  let g = square () in
  let score = Array.make (Graph.num_arcs g) 1. in
  Alcotest.check_raises "samples < 1"
    (Invalid_argument "Joint_failure.two_link: samples < 1") (fun () ->
      ignore (Joint_failure.two_link ~rng:(Rng.create 1) ~samples:0 ~score g));
  Alcotest.check_raises "score size"
    (Invalid_argument "Joint_failure.two_link: score not sized to the arc count")
    (fun () ->
      ignore
        (Joint_failure.two_link ~rng:(Rng.create 1) ~samples:1 ~score:[| 1. |] g))

(* --- cascading expansion ------------------------------------------------- *)

(* On the diamond (all caps 500, demands 0->3 of 30+100 and 1->2 of 50),
   failing edge 0-1 reroutes everything over 0-2-3: utilisation 0.26 on arcs
   0->2 and 2->3.  A 0.2 trip threshold fails both those edges in wave one
   and then reaches a fixed point (the survivors carry nothing); a 0.3
   threshold trips nothing. *)
let test_cascade_expansion () =
  let scenario = Fixtures.diamond_scenario () in
  let w = Weights.create ~num_arcs:8 ~init:1 in
  let seed = Failure.Edge 0 in
  let no_trip =
    Joint_failure.cascade ~exec:Exec.serial ~trip:0.3 scenario w seed
  in
  Alcotest.(check bool) "below trip: seed only" true
    (no_trip = Failure.Arcs [ 0; 1 ]);
  let tripped =
    Joint_failure.cascade ~exec:Exec.serial ~trip:0.2 scenario w seed
  in
  Alcotest.(check bool) "overloaded edges trip with their reverses" true
    (tripped = Failure.Arcs [ 0; 1; 2; 3; 6; 7 ])

let test_cascade_contains_seed () =
  let scenario, w = random_scenario 77 in
  let g = scenario.Scenario.graph in
  List.iter
    (fun f ->
      let expanded =
        Joint_failure.cascade ~exec:Exec.serial ~trip:0.8 scenario w f
      in
      let seed_arcs = Joint_failure.members g f in
      let all = Joint_failure.members g expanded in
      List.iter
        (fun a ->
          Alcotest.(check bool) "seed arcs stay failed" true (List.mem a all))
        seed_arcs)
    [ Failure.Arc 0; Failure.Edge 2; Failure.Arcs [ 0; 4 ] ]

let test_cascade_validation () =
  let scenario = Fixtures.diamond_scenario () in
  let w = Weights.create ~num_arcs:8 ~init:1 in
  Alcotest.check_raises "node failures rejected"
    (Invalid_argument "Joint_failure.cascade: node failures do not cascade")
    (fun () ->
      ignore (Joint_failure.cascade ~trip:0.5 scenario w (Failure.Node 0)));
  Alcotest.check_raises "trip <= 0"
    (Invalid_argument "Joint_failure.cascade: trip <= 0") (fun () ->
      ignore (Joint_failure.cascade ~trip:0. scenario w (Failure.Arc 0)));
  Alcotest.check_raises "max_waves < 1"
    (Invalid_argument "Joint_failure.cascade: max_waves < 1") (fun () ->
      ignore
        (Joint_failure.cascade ~max_waves:0 ~trip:0.5 scenario w (Failure.Arc 0)))

(* --- criticality attribution --------------------------------------------- *)

let test_attribute () =
  let g = square () in
  let events = [| Failure.Arcs [ 0; 1 ]; Failure.Arcs [ 2; 3 ] |] in
  (* two sampled settings: the first event's cost varies across them, the
     second is constant *)
  let costs =
    [|
      [| Lexico.make ~lambda:1. ~phi:10.; Lexico.make ~lambda:2. ~phi:20. |];
      [| Lexico.make ~lambda:5. ~phi:40.; Lexico.make ~lambda:2. ~phi:20. |];
    |]
  in
  let crit =
    Joint_failure.attribute ~left_tail:0.5 ~num_arcs:(Graph.num_arcs g) ~graph:g
      ~events ~costs
  in
  (* the varying event makes each of its member arcs critical... *)
  Alcotest.(check bool) "varying event members critical" true
    (crit.Dtr_core.Criticality.rho_lambda.(0) > 0.
    && crit.Dtr_core.Criticality.rho_lambda.(1) > 0.
    && crit.Dtr_core.Criticality.rho_phi.(0) > 0.);
  (* ...the constant event contributes no regret... *)
  Alcotest.(check (float 0.)) "constant event has zero criticality" 0.
    crit.Dtr_core.Criticality.rho_lambda.(2);
  (* ...and arcs in no event score zero *)
  Alcotest.(check (float 0.)) "uncovered arc scores zero" 0.
    crit.Dtr_core.Criticality.rho_lambda.(4);
  Alcotest.check_raises "cost row size"
    (Invalid_argument "Joint_failure.attribute: cost row not sized to events")
    (fun () ->
      ignore
        (Joint_failure.attribute ~left_tail:0.5 ~num_arcs:(Graph.num_arcs g)
           ~graph:g ~events
           ~costs:[| [| Lexico.make ~lambda:1. ~phi:1. |] |]))

(* --- fixed-seed end-to-end SRLG optimization ----------------------------- *)

let test_e2e_srlg_jobs_identity () =
  let scenario = Fixtures.small ~seed:2025 ~nodes:10 ~avg_util:0.45 () in
  let solve ~exec =
    Optimizer.optimize ~rng:(Rng.create 9)
      ~failure_model:(Optimizer.Srlg_failures 0.25) ~exec scenario
  in
  let serial = solve ~exec:Exec.serial in
  let jobs2 = solve ~exec:(Exec.of_jobs 2) in
  Alcotest.(check bool) "SRLG scenarios present" true
    (List.length serial.Optimizer.failures >= 1);
  List.iter
    (fun f ->
      Alcotest.(check bool) "SRLG events are multi-arc" true
        (List.length (Joint_failure.members scenario.Scenario.graph f) >= 2))
    serial.Optimizer.failures;
  Alcotest.(check bool) "robust weights identical" true
    (serial.Optimizer.robust.Weights.wd = jobs2.Optimizer.robust.Weights.wd
    && serial.Optimizer.robust.Weights.wt = jobs2.Optimizer.robust.Weights.wt);
  Alcotest.(check bool) "costs identical" true
    (serial.Optimizer.regular_cost = jobs2.Optimizer.regular_cost
    && serial.Optimizer.robust_normal_cost = jobs2.Optimizer.robust_normal_cost
    && serial.Optimizer.robust_fail_cost = jobs2.Optimizer.robust_fail_cost);
  Alcotest.(check (list int)) "critical member arcs identical"
    serial.Optimizer.critical jobs2.Optimizer.critical;
  Alcotest.(check bool) "failure sets identical" true
    (serial.Optimizer.failures = jobs2.Optimizer.failures)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_multi_arc_repair_identity;
    QCheck_alcotest.to_alcotest prop_joint_sweep_identity;
    Alcotest.test_case "member arcs of joint events" `Quick test_members;
    Alcotest.test_case "two-link sampler" `Quick test_two_link_events;
    Alcotest.test_case "two-link validation" `Quick test_two_link_validation;
    Alcotest.test_case "cascade expansion on the diamond" `Quick
      test_cascade_expansion;
    Alcotest.test_case "cascade contains its seed" `Quick
      test_cascade_contains_seed;
    Alcotest.test_case "cascade validation" `Quick test_cascade_validation;
    Alcotest.test_case "joint criticality attribution" `Quick test_attribute;
    Alcotest.test_case "fixed-seed e2e SRLG identity (jobs=1 vs 2)" `Slow
      test_e2e_srlg_jobs_identity;
  ]
