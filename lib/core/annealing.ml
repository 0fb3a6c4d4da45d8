module Rng = Dtr_util.Rng
module Lexico = Dtr_cost.Lexico
module Metric = Dtr_obs.Metric
module Trace = Dtr_obs.Trace
module Convergence = Dtr_obs.Convergence

type config = {
  wmax : int;
  initial_temperature : float;
  cooling : float;
  moves_per_stage : int;
  min_temperature : float;
  lambda_weight : float;
}

let default_config ~wmax =
  {
    wmax;
    initial_temperature = 1000.;
    cooling = 0.92;
    moves_per_stage = 200;
    min_temperature = 0.1;
    lambda_weight = 1e4;
  }

type result = {
  best : Weights.t;
  best_cost : Lexico.t;
  proposals : int;
  accepted : int;
  uphill : int;
}

let validate config =
  if config.wmax < 2 then invalid_arg "Annealing: wmax must be >= 2";
  if config.cooling <= 0. || config.cooling >= 1. then
    invalid_arg "Annealing: cooling outside (0, 1)";
  if config.initial_temperature <= config.min_temperature then
    invalid_arg "Annealing: initial temperature below the floor";
  if config.moves_per_stage < 1 then invalid_arg "Annealing: moves_per_stage < 1";
  if config.min_temperature <= 0. then invalid_arg "Annealing: min_temperature <= 0";
  if config.lambda_weight <= 0. then invalid_arg "Annealing: lambda_weight <= 0"

let energy config cost =
  (config.lambda_weight *. cost.Lexico.lambda) +. cost.Lexico.phi

let minimize_engine ~rng ~(engine : Local_search.engine) ~init config =
  validate config;
  Convergence.with_series ~name:"annealing" @@ fun () ->
  let current = Weights.copy init in
  let current_cost =
    match engine.Local_search.start current with
    | Some c -> ref c
    | None -> invalid_arg "Annealing: infeasible starting point"
  in
  let num_arcs = Weights.num_arcs current in
  let best = ref (Weights.copy current) and best_cost = ref !current_cost in
  let proposals = ref 0 and accepted = ref 0 and uphill = ref 0 in
  let temperature = ref config.initial_temperature in
  while !temperature >= config.min_temperature do
    let stage_accepted = ref 0 and stage_uphill = ref 0 in
    for _ = 1 to config.moves_per_stage do
      incr proposals;
      let arc = Rng.int rng num_arcs in
      let saved = Weights.save_arc current arc in
      Weights.perturb_arc rng current ~arc ~wmax:config.wmax;
      (* Metropolis needs the exact energy of every proposal (uphill moves
         may still be taken), so no pruning bound is supplied. *)
      match engine.Local_search.try_arc current ~arc ~bound:None with
      | Local_search.Infeasible | Local_search.Pruned ->
          if Trace.enabled () then
            Trace.emit_move ~arc ~accepted:false
              ~old_lambda:!current_cost.Lexico.lambda
              ~old_phi:!current_cost.Lexico.phi ~new_lambda:Float.nan
              ~new_phi:Float.nan;
          engine.Local_search.rollback ();
          Weights.restore_arc current saved
      | Local_search.Cost cost ->
          let delta = energy config cost -. energy config !current_cost in
          let take =
            if delta <= 0. then true
            else Rng.float rng 1. < exp (-.delta /. !temperature)
          in
          if Trace.enabled () then
            Trace.emit_move ~arc ~accepted:take
              ~old_lambda:!current_cost.Lexico.lambda
              ~old_phi:!current_cost.Lexico.phi ~new_lambda:cost.Lexico.lambda
              ~new_phi:cost.Lexico.phi;
          if take then begin
            engine.Local_search.commit ();
            incr accepted;
            incr stage_accepted;
            if delta > 0. then begin
              incr uphill;
              incr stage_uphill
            end;
            current_cost := cost;
            if Lexico.is_better cost ~than:!best_cost then begin
              best := Weights.copy current;
              best_cost := cost
            end
          end
          else begin
            engine.Local_search.rollback ();
            Weights.restore_arc current saved
          end
    done;
    (* One convergence point per temperature stage: [resets] counts the
       stage's uphill acceptances — the annealing analogue of
       diversification. *)
    if Metric.enabled () then
      Convergence.record ~best_lambda:!best_cost.Lexico.lambda
        ~best_phi:!best_cost.Lexico.phi ~cur_lambda:!current_cost.Lexico.lambda
        ~cur_phi:!current_cost.Lexico.phi ~trials:config.moves_per_stage
        ~accepts:!stage_accepted ~resets:!stage_uphill;
    temperature := !temperature *. config.cooling
  done;
  {
    best = !best;
    best_cost = !best_cost;
    proposals = !proposals;
    accepted = !accepted;
    uphill = !uphill;
  }

let minimize ~rng ~eval ~init config =
  minimize_engine ~rng ~engine:(Local_search.eval_engine eval) ~init config

(* Annealing revisits weight vectors constantly — rejected perturbations are
   re-drawn from the same state, and the random walk crosses its own path —
   so the incremental engine memoizes the normal-conditions cost in a
   {!Delta_cache} through its search cursor.  Metropolis needs exact
   energies, so only [Full] entries serve (a [Lower] bound cannot price an
   uphill move); the cached value is the bit-identical result of the same
   pure pricing, and no cache decision consumes randomness, so fixed-seed
   results are unchanged.  A cache hit skips staging an {!Eval_incr} trial
   entirely; if that hit is then {e accepted} the trial is re-staged before
   the commit — acceptance is the rare case at low temperature, and the win
   is the rejected re-visit that now prices nothing. *)
let minimize_incremental ~rng (scenario : Scenario.t) ~init config =
  let e = Eval_incr.create scenario in
  let cursor = Delta_cache.cursor (Some (Delta_cache.create ~capacity:256)) in
  let unstaged = ref None in
  let engine =
    Local_search.
      {
        start =
          (fun w ->
            let c = Eval_incr.anchor e w in
            Delta_cache.start cursor w;
            Delta_cache.record cursor w (Delta_cache.Full c);
            Some c);
        try_arc =
          (fun w ~arc ~bound:_ ->
            Delta_cache.stage cursor w ~arc;
            match Delta_cache.lookup cursor w with
            | Some (Delta_cache.Full c) ->
                unstaged := Some (w, arc);
                Cost c
            | Some (Delta_cache.Lower _) | None ->
                let c = Eval_incr.try_arc e w ~arc in
                Delta_cache.record cursor w (Delta_cache.Full c);
                Cost c);
        commit =
          (fun () ->
            Option.iter (fun (w, arc) -> ignore (Eval_incr.try_arc e w ~arc)) !unstaged;
            unstaged := None;
            Eval_incr.commit e;
            Delta_cache.commit cursor);
        rollback =
          (fun () ->
            if Option.is_none !unstaged then Eval_incr.rollback e;
            unstaged := None;
            Delta_cache.rollback cursor);
      }
  in
  minimize_engine ~rng ~engine ~init config
