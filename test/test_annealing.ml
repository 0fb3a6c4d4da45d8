(* Tests for Dtr_core.Annealing. *)

module Rng = Dtr_util.Rng
module Weights = Dtr_core.Weights
module Annealing = Dtr_core.Annealing
module Lexico = Dtr_cost.Lexico

(* Synthetic objective: L1 distance of wd to a hidden target vector. *)
let target_objective target (w : Weights.t) =
  let dist = ref 0. in
  Array.iteri
    (fun i x -> dist := !dist +. Float.abs (float_of_int (x - target.(i))))
    w.Weights.wd;
  Some (Lexico.make ~lambda:0. ~phi:!dist)

let test_reaches_target () =
  let rng = Rng.create 1 in
  let num_arcs = 10 and wmax = 8 in
  let target = Array.init num_arcs (fun i -> 1 + (i mod wmax)) in
  let config =
    { (Annealing.default_config ~wmax) with Annealing.moves_per_stage = 400 }
  in
  let result =
    Annealing.minimize ~rng ~eval:(target_objective target)
      ~init:(Weights.create ~num_arcs ~init:1)
      config
  in
  Alcotest.(check (float 1e-9)) "finds the target" 0.
    result.Annealing.best_cost.Lexico.phi;
  Weights.validate result.Annealing.best ~wmax;
  Alcotest.(check bool) "bookkeeping sane" true
    (result.Annealing.accepted <= result.Annealing.proposals
    && result.Annealing.uphill <= result.Annealing.accepted)

let test_uphill_moves_happen () =
  let rng = Rng.create 2 in
  let num_arcs = 6 and wmax = 8 in
  let target = Array.make num_arcs 4 in
  let result =
    Annealing.minimize ~rng ~eval:(target_objective target)
      ~init:(Weights.create ~num_arcs ~init:1)
      (Annealing.default_config ~wmax)
  in
  (* at temperature 1000 with unit-scale deltas, worsening moves are accepted *)
  Alcotest.(check bool) "annealing accepts uphill moves" true
    (result.Annealing.uphill > 0)

let test_respects_feasibility () =
  let rng = Rng.create 3 in
  let num_arcs = 6 and wmax = 8 in
  (* arc 0 must keep weight 1; objective prefers large totals *)
  let eval (w : Weights.t) =
    if w.Weights.wd.(0) <> 1 then None
    else begin
      let total = Array.fold_left ( + ) 0 w.Weights.wd in
      Some (Lexico.make ~lambda:0. ~phi:(-.float_of_int total))
    end
  in
  let result =
    Annealing.minimize ~rng ~eval
      ~init:(Weights.create ~num_arcs ~init:1)
      (Annealing.default_config ~wmax)
  in
  Alcotest.(check int) "constraint held at the optimum" 1
    result.Annealing.best.Weights.wd.(0)

let test_lexicographic_priority () =
  let rng = Rng.create 4 in
  let num_arcs = 4 and wmax = 6 in
  (* lambda counts weights above 3, phi prefers high weights: the annealer
     must zero lambda first even though phi pulls the other way *)
  let eval (w : Weights.t) =
    let lambda =
      Array.fold_left (fun acc x -> if x > 3 then acc +. 100. else acc) 0. w.Weights.wd
    in
    let phi = -.float_of_int (Array.fold_left ( + ) 0 w.Weights.wd) in
    Some (Lexico.make ~lambda ~phi)
  in
  let result =
    Annealing.minimize ~rng ~eval
      ~init:(Weights.create ~num_arcs ~init:5)
      (Annealing.default_config ~wmax)
  in
  Alcotest.(check (float 0.)) "lambda zeroed" 0. result.Annealing.best_cost.Lexico.lambda;
  Array.iter
    (fun x -> Alcotest.(check bool) "weights at the lambda boundary" true (x <= 3))
    result.Annealing.best.Weights.wd

let test_validation () =
  let rng = Rng.create 5 in
  let init = Weights.create ~num_arcs:2 ~init:1 in
  let eval w = target_objective [| 1; 1 |] w in
  Alcotest.check_raises "bad cooling" (Invalid_argument "Annealing: cooling outside (0, 1)")
    (fun () ->
      ignore
        (Annealing.minimize ~rng ~eval ~init
           { (Annealing.default_config ~wmax:5) with Annealing.cooling = 1.5 }));
  Alcotest.check_raises "infeasible start"
    (Invalid_argument "Annealing: infeasible starting point") (fun () ->
      ignore
        (Annealing.minimize ~rng ~eval:(fun _ -> None) ~init
           (Annealing.default_config ~wmax:5)))

let test_real_instance_improves () =
  (* on a real scenario, annealing from a random setting should not end
     worse than it started *)
  let scenario = Fixtures.small ~seed:81 ~nodes:8 () in
  let rng = Rng.create 82 in
  let init =
    Weights.random rng ~num_arcs:(Dtr_core.Scenario.num_arcs scenario) ~wmax:20
  in
  let eval w = Some (Dtr_core.Eval.cost scenario w) in
  let start_cost = Dtr_core.Eval.cost scenario init in
  let config =
    { (Annealing.default_config ~wmax:20) with
      Annealing.moves_per_stage = 60;
      cooling = 0.7;
    }
  in
  let result = Annealing.minimize ~rng ~eval ~init config in
  Alcotest.(check bool) "no worse than the start" true
    (Lexico.compare result.Annealing.best_cost start_cost <= 0)

(* The delta cache memoizes re-visited weight vectors inside
   [minimize_incremental]; cache decisions consume no randomness and cached
   costs are exact, so a fixed seed must land on bit-identical results to
   the same anneal over a stateless from-scratch [Eval.cost] engine. *)
let test_delta_cache_identity () =
  let scenario = Fixtures.small ~seed:91 ~nodes:8 () in
  let num_arcs = Dtr_core.Scenario.num_arcs scenario in
  let config =
    { (Annealing.default_config ~wmax:16) with
      Annealing.moves_per_stage = 120;
      cooling = 0.7;
    }
  in
  let init = Weights.create ~num_arcs ~init:1 in
  let cached = Annealing.minimize_incremental ~rng:(Rng.create 92) scenario ~init config in
  let oracle =
    Annealing.minimize_engine ~rng:(Rng.create 92)
      ~engine:
        (Dtr_core.Local_search.eval_engine (fun w ->
             Some (Dtr_core.Eval.cost scenario w)))
      ~init config
  in
  Alcotest.(check bool) "best weights identical" true
    (cached.Annealing.best.Weights.wd = oracle.Annealing.best.Weights.wd
    && cached.Annealing.best.Weights.wt = oracle.Annealing.best.Weights.wt);
  Alcotest.(check bool) "best cost identical" true
    (cached.Annealing.best_cost = oracle.Annealing.best_cost);
  Alcotest.(check int) "same proposals" oracle.Annealing.proposals
    cached.Annealing.proposals;
  Alcotest.(check int) "same accepted" oracle.Annealing.accepted
    cached.Annealing.accepted;
  Alcotest.(check int) "same uphill" oracle.Annealing.uphill cached.Annealing.uphill

let suite =
  [
    Alcotest.test_case "reaches a synthetic target" `Quick test_reaches_target;
    Alcotest.test_case "uphill moves accepted" `Quick test_uphill_moves_happen;
    Alcotest.test_case "feasibility respected" `Quick test_respects_feasibility;
    Alcotest.test_case "lexicographic priority" `Quick test_lexicographic_priority;
    Alcotest.test_case "configuration validation" `Quick test_validation;
    Alcotest.test_case "improves a real instance" `Slow test_real_instance_improves;
    Alcotest.test_case "delta cache keeps fixed-seed identity" `Slow
      test_delta_cache_identity;
  ]
