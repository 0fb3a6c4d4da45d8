module Lexico = Dtr_cost.Lexico
module Ls = Local_search

type objective = Kfail_if of (Lexico.t -> bool) | Normal_plus_kfail

let engine ?exec ?cache (scenario : Scenario.t) objective ~failures =
  let exec = match exec with Some e -> e | None -> Dtr_exec.Exec.default () in
  let e = Eval_incr.create scenario in
  let cursor = Delta_cache.cursor cache in
  let admits normal =
    match objective with Kfail_if ok -> ok normal | Normal_plus_kfail -> true
  in
  let init normal =
    match objective with Kfail_if _ -> None | Normal_plus_kfail -> Some normal
  in
  (* Stage 2 over the engine's current bases: the committed ones at a round
     start, the staged trial's after a [try_arc]. *)
  let sweep ?prune w normal =
    let routing_d, routing_t = Eval_incr.current_routing e in
    Eval.compound_sweep_bounded scenario ~exec ~routing_d ~routing_t
      ?init:(init normal) ?prune w ~failures
  in
  let exact w normal =
    if failures = [] then Option.value (init normal) ~default:Lexico.zero
    else
      match sweep w normal with
      | Eval.Swept c | Eval.Aborted_at c ->
          Delta_cache.record cursor w (Delta_cache.Full c);
          c
  in
  let start w =
    let normal = Eval_incr.anchor e w in
    if not (admits normal) then None
    else begin
      Delta_cache.start cursor w;
      match Delta_cache.lookup cursor w with
      | Some (Delta_cache.Full c) -> Some c
      (* a round start needs the exact objective: a lower bound can't serve *)
      | Some (Delta_cache.Lower _) | None -> Some (exact w normal)
    end
  in
  let try_arc w ~arc ~bound =
    (* Stage 1: Phase 2's gate bounds the normal cost on its own; J bounds it
       through the search bound, since J dominates it componentwise. *)
    let gate =
      match (objective, bound) with
      | Kfail_if ok, _ -> Some (fun partial -> not (ok partial))
      | Normal_plus_kfail, Some than -> Some (fun partial -> Lexico.prunes partial ~than)
      | Normal_plus_kfail, None -> None
    in
    let staged =
      match gate with
      | Some prune -> Eval_incr.try_arc_bounded e ~prune w ~arc
      | None -> Some (Eval_incr.try_arc e w ~arc)
    in
    (* Rejected trials stay staged; the search's rollback discards them. *)
    match staged with
    | None -> ( match objective with Kfail_if _ -> Ls.Infeasible | Normal_plus_kfail -> Ls.Pruned)
    | Some normal when not (admits normal) -> Ls.Infeasible
    | Some normal when failures = [] -> Ls.Cost (exact w normal)
    | Some normal -> (
        Delta_cache.stage cursor w ~arc;
        match (Delta_cache.lookup cursor w, bound) with
        | Some (Delta_cache.Full c), _ -> Ls.Cost c
        | Some (Delta_cache.Lower lb), Some than when Lexico.prunes lb ~than -> Ls.Pruned
        | _, Some than -> (
            match sweep ~prune:(fun partial -> Lexico.prunes partial ~than) w normal with
            | Eval.Swept c ->
                Delta_cache.record cursor w (Delta_cache.Full c);
                Ls.Cost c
            | Eval.Aborted_at lb ->
                Delta_cache.record cursor w (Delta_cache.Lower lb);
                Ls.Pruned)
        | _ -> Ls.Cost (exact w normal))
  in
  let commit () = Eval_incr.commit e; Delta_cache.commit cursor in
  let rollback () = Eval_incr.rollback e; Delta_cache.rollback cursor in
  { Ls.start; try_arc; commit; rollback }
