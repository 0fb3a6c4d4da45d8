(* Tests for Dtr_spf.Routing: ECMP DAGs, load conservation, delay DPs, and
   the incremental failure recomputation. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Routing = Dtr_spf.Routing
module Dijkstra = Dtr_spf.Dijkstra

let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 }

(* 0 connects to 3 via two disjoint equal-cost 2-hop paths (through 1 or 2). *)
let ecmp_diamond () =
  Graph.of_edges ~n:4 [ edge 0 1; edge 0 2; edge 1 3; edge 2 3 ]

let unit_demands n pairs =
  let d = Array.make_matrix n n 0. in
  List.iter (fun (s, t, v) -> d.(s).(t) <- v) pairs;
  d

(* Total load on the arcs entering [v], read off its CSR in-row. *)
let inflow_of g loads v =
  let off = Graph.in_offsets g and ids = Graph.in_csr g in
  let acc = ref 0. in
  for i = off.(v) to off.(v + 1) - 1 do
    acc := !acc +. loads.(ids.(i))
  done;
  !acc

let test_ecmp_split () =
  let g = ecmp_diamond () in
  let weights = Array.make (Graph.num_arcs g) 1 in
  let r = Routing.compute g ~weights () in
  let nh = Routing.next_hops r ~dest:3 ~node:0 in
  Alcotest.(check int) "two next hops at the fork" 2 (Array.length nh);
  let loads, unrouted = Routing.loads r ~graph:g ~demands:(unit_demands 4 [ (0, 3, 10.) ]) () in
  Alcotest.(check (float 1e-9)) "nothing dropped" 0. unrouted;
  (* each branch carries half *)
  let on u v =
    match Graph.find_arc g u v with Some id -> loads.(id) | None -> Alcotest.fail "arc"
  in
  Alcotest.(check (float 1e-9)) "0->1 half" 5. (on 0 1);
  Alcotest.(check (float 1e-9)) "0->2 half" 5. (on 0 2);
  Alcotest.(check (float 1e-9)) "1->3 half" 5. (on 1 3);
  Alcotest.(check (float 1e-9)) "2->3 half" 5. (on 2 3)

let test_unequal_weights_single_path () =
  let g = ecmp_diamond () in
  let weights = Array.make (Graph.num_arcs g) 1 in
  (* make the path through 2 cheaper *)
  (match Graph.find_arc g 0 1 with Some id -> weights.(id) <- 5 | None -> ());
  let r = Routing.compute g ~weights () in
  let loads, _ = Routing.loads r ~graph:g ~demands:(unit_demands 4 [ (0, 3, 10.) ]) () in
  let on u v =
    match Graph.find_arc g u v with Some id -> loads.(id) | None -> Alcotest.fail "arc"
  in
  Alcotest.(check (float 1e-9)) "all through 2" 10. (on 0 2);
  Alcotest.(check (float 1e-9)) "none through 1" 0. (on 0 1)

(* Flow conservation: total load on arcs into the destination equals total
   routed demand towards it. *)
let prop_load_conservation =
  QCheck.Test.make ~name:"ECMP load conservation at destinations" ~count:30
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 12 in
      let g = Gen.rand rng ~nodes:n ~degree:4. in
      let m = Graph.num_arcs g in
      let weights = Array.init m (fun _ -> 1 + Rng.int rng 10) in
      let r = Routing.compute g ~weights () in
      let ok = ref true in
      for dest = 0 to n - 1 do
        let demands = Array.make_matrix n n 0. in
        let total = ref 0. in
        for s = 0 to n - 1 do
          if s <> dest then begin
            let v = Rng.float rng 10. in
            demands.(s).(dest) <- v;
            total := !total +. v
          end
        done;
        let loads, unrouted = Routing.loads r ~graph:g ~demands () in
        let inflow =
          inflow_of g loads dest
        in
        if Float.abs (inflow +. unrouted -. !total) > 1e-6 then ok := false
      done;
      !ok)

let test_exclude_node () =
  let g = ecmp_diamond () in
  let weights = Array.make (Graph.num_arcs g) 1 in
  let r = Routing.compute g ~weights () in
  let demands = unit_demands 4 [ (0, 3, 10.); (1, 3, 4.) ] in
  let loads, unrouted =
    Routing.loads r ~graph:g ~demands ~exclude_node:1 ()
  in
  Alcotest.(check (float 1e-9)) "no unrouted" 0. unrouted;
  (* demands from node 1 dropped, but transit through node 1 still allowed *)
  let total_into_3 = inflow_of g loads 3 in
  Alcotest.(check (float 1e-9)) "only 0->3 demand arrives" 10. total_into_3

let test_unrouted_on_failure () =
  let g = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2 ] in
  let weights = Array.make 4 1 in
  let disabled = Array.make 4 false in
  disabled.(2) <- true;
  disabled.(3) <- true;
  let r = Routing.compute g ~weights ~disabled () in
  let loads, unrouted =
    Routing.loads r ~graph:g ~demands:(unit_demands 3 [ (0, 2, 7.); (0, 1, 1.) ]) ()
  in
  Alcotest.(check (float 1e-9)) "0->2 dropped" 7. unrouted;
  (match Graph.find_arc g 0 1 with
  | Some id -> Alcotest.(check (float 1e-9)) "0->1 still routed" 1. loads.(id)
  | None -> Alcotest.fail "arc");
  Alcotest.(check bool) "reachability reported" false (Routing.reachable r ~src:0 ~dst:2)

let test_expected_delay_ecmp () =
  let g = ecmp_diamond () in
  let weights = Array.make (Graph.num_arcs g) 1 in
  let r = Routing.compute g ~weights () in
  (* give the two branches different delays: 1ms+1ms vs 3ms+3ms *)
  let arc_delay = Array.make (Graph.num_arcs g) 0. in
  let set u v d =
    match Graph.find_arc g u v with Some id -> arc_delay.(id) <- d | None -> ()
  in
  set 0 1 0.001;
  set 1 3 0.001;
  set 0 2 0.003;
  set 2 3 0.003;
  let del = Routing.expected_delays_to r ~arc_delay ~dest:3 in
  Alcotest.(check (float 1e-9)) "expected = mean of branches" 0.004 del.(0);
  let worst = Routing.max_delays_to r ~arc_delay ~dest:3 in
  Alcotest.(check (float 1e-9)) "max = slower branch" 0.006 worst.(0);
  Alcotest.(check (float 1e-9)) "pair helper agrees" 0.004
    (Routing.pair_expected_delay r ~arc_delay ~src:0 ~dst:3)

let test_bottleneck () =
  let g = ecmp_diamond () in
  let weights = Array.make (Graph.num_arcs g) 1 in
  let r = Routing.compute g ~weights () in
  let util = Array.make (Graph.num_arcs g) 0.1 in
  (match Graph.find_arc g 2 3 with Some id -> util.(id) <- 0.9 | None -> ());
  let bn = Routing.bottleneck_to r ~arc_value:util ~dest:3 in
  Alcotest.(check (float 1e-9)) "max over the whole DAG" 0.9 bn.(0);
  Alcotest.(check (float 1e-9)) "clean branch" 0.1 bn.(1)

let test_incremental_failure_equivalence () =
  (* with_failed_arcs must agree exactly with a from-scratch compute. *)
  let rng = Rng.create 123 in
  for trial = 0 to 14 do
    let g = Gen.rand (Rng.create (trial + 500)) ~nodes:14 ~degree:4. in
    let m = Graph.num_arcs g in
    let weights = Array.init m (fun _ -> 1 + Rng.int rng 8) in
    let base = Routing.compute g ~weights () in
    let failed = [ Rng.int rng m ] in
    let disabled = Array.make m false in
    List.iter (fun id -> disabled.(id) <- true) failed;
    let inc = Routing.with_failed_arcs base ~weights ~disabled ~failed in
    let scratch = Routing.compute g ~weights ~disabled () in
    let n = Graph.num_nodes g in
    let demands = Array.make_matrix n n 1. in
    for i = 0 to n - 1 do
      demands.(i).(i) <- 0.
    done;
    let l1, u1 = Routing.loads inc ~graph:g ~demands () in
    let l2, u2 = Routing.loads scratch ~graph:g ~demands () in
    Alcotest.(check (float 1e-6)) "same unrouted" u2 u1;
    Array.iteri
      (fun id x -> Alcotest.(check (float 1e-6)) (Printf.sprintf "load arc %d" id) l2.(id) x)
      l1;
    for dest = 0 to n - 1 do
      for src = 0 to n - 1 do
        Alcotest.(check int) "same distances"
          (Routing.distance scratch ~src ~dst:dest)
          (Routing.distance inc ~src ~dst:dest)
      done
    done
  done

let suite =
  [
    Alcotest.test_case "ECMP even split" `Quick test_ecmp_split;
    Alcotest.test_case "unequal weights use one path" `Quick test_unequal_weights_single_path;
    QCheck_alcotest.to_alcotest prop_load_conservation;
    Alcotest.test_case "node exclusion" `Quick test_exclude_node;
    Alcotest.test_case "unrouted demand on failure" `Quick test_unrouted_on_failure;
    Alcotest.test_case "expected/max delay over ECMP" `Quick test_expected_delay_ecmp;
    Alcotest.test_case "bottleneck DP" `Quick test_bottleneck;
    Alcotest.test_case "incremental failure equals recompute" `Quick
      test_incremental_failure_equivalence;
  ]
