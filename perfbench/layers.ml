(* Per-layer measurement for the traced mode.

   Everything here reads the program from outside: the counters and spans
   the library already records (through the Dtr_obs public API), GC
   statistics, and probes that time single calls into a layer's public
   functions on the workload's own instance.  Nothing is added inside lib/. *)

module Metric = Dtr_obs.Metric
module Span = Dtr_obs.Span
module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr

(* ---- counter deltas over the traced windows -------------------------- *)

(* Some library counters (the sweep counters) are always on, so totals also
   include the untraced windows of a traced run; the traced windows' share
   is taken as before/after deltas and summed. *)
type totals = {
  counters : (string, int) Hashtbl.t;
  accums : (string, float) Hashtbl.t;
  mutable wall : float;  (** wall seconds of the traced windows *)
  mutable minor : float;
  mutable promoted : float;
  mutable majors : int;
}

let totals () =
  {
    counters = Hashtbl.create 64;
    accums = Hashtbl.create 16;
    wall = 0.;
    minor = 0.;
    promoted = 0.;
    majors = 0;
  }

let add_to tbl k v zero ( + ) =
  Hashtbl.replace tbl k (Option.value (Hashtbl.find_opt tbl k) ~default:zero + v)

(* Run [f] with instrumentation on and add its counter, accumulator and GC
   deltas to [t]. *)
let traced t f =
  let c0 = Metric.all_counters () and a0 = Metric.all_accums () in
  let g0 = Gc.quick_stat () in
  Metric.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let result = Fun.protect ~finally:(fun () -> Metric.set_enabled false) f in
  t.wall <- t.wall +. (Unix.gettimeofday () -. t0);
  let g1 = Gc.quick_stat () in
  let before l k zero = Option.value (List.assoc_opt k l) ~default:zero in
  List.iter (fun (k, v) -> add_to t.counters k (v - before c0 k 0) 0 ( + )) (Metric.all_counters ());
  List.iter (fun (k, v) -> add_to t.accums k (v -. before a0 k 0.) 0. ( +. )) (Metric.all_accums ());
  t.minor <- t.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  t.promoted <- t.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  t.majors <- t.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
  result

let counter t k = Option.value (Hashtbl.find_opt t.counters k) ~default:0
let accum t k = Option.value (Hashtbl.find_opt t.accums k) ~default:0.
let ratio a b = if b = 0. then 0. else a /. b

(* Self time of every span called [name], wherever it sits in the merged
   tree. *)
let span_self name =
  let rec go acc (v : Span.view) =
    let acc = if v.Span.vname = name then acc +. v.Span.exclusive else acc in
    List.fold_left go acc v.Span.children
  in
  List.fold_left go 0. (Span.merged ())

(* ---- probes ---------------------------------------------------------- *)

(* Median wall time of [reps] calls of [f i], inside a benchmark-side span
   so the probe shows up in the span tree beside the program's own. *)
let probe ~name ~reps f =
  Span.with_ ~name:("perfbench.probe." ^ name) @@ fun () ->
  Perfbench.Stats.median
    (Array.init reps (fun i ->
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (f i));
         Unix.gettimeofday () -. t0))

type probes = {
  compute_us : float;
  with_failed_us : float;
  evaluate_ms : float;
  try_arc_us : float;
}

(* Probe the routing, evaluation and incremental-pricing layers on the
   workload's instance and weight setting.  Probed arcs are spread evenly
   over the arc ids, so the sample is the same on every run. *)
let run_probes scenario w =
  Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Metric.set_enabled false) @@ fun () ->
  let g = scenario.Scenario.graph in
  let arcs = Graph.num_arcs g in
  let sample = Array.init 16 (fun i -> i * arcs / 16) in
  let weights = Weights.delay_of w in
  let compute_us = 1e6 *. probe ~name:"routing_compute" ~reps:9 (fun _ -> Routing.compute g ~weights ()) in
  let base = Routing.compute g ~weights () in
  let with_failed_us =
    1e6
    *. probe ~name:"routing_with_failed_arcs" ~reps:(Array.length sample) (fun i ->
           let failed = [ sample.(i) ] in
           let disabled = Failure.mask g (Failure.Arcs failed) in
           Routing.with_failed_arcs base ~weights ~disabled ~failed)
  in
  let evaluate_ms = 1e3 *. probe ~name:"eval_evaluate" ~reps:5 (fun _ -> Eval.evaluate scenario w) in
  let engine = Eval_incr.create scenario in
  let w = Weights.copy w in
  ignore (Eval_incr.anchor engine w);
  let wmax = scenario.Scenario.params.Scenario.wmax in
  let try_arc_us =
    1e6
    *. probe ~name:"eval_incr_try_arc" ~reps:(Array.length sample) (fun i ->
           let arc = sample.(i) in
           let saved = Weights.save_arc w arc in
           let bump x = if x >= wmax then x - 1 else x + 1 in
           Weights.set_arc w ~arc ~wd:(bump w.Weights.wd.(arc)) ~wt:(bump w.Weights.wt.(arc));
           let c = Eval_incr.try_arc engine w ~arc in
           Eval_incr.rollback engine;
           Weights.restore_arc w saved;
           c)
  in
  { compute_us; with_failed_us; evaluate_ms; try_arc_us }

(* ---- the per-layer metric set ---------------------------------------- *)

(* Daemon-side measurements the serve workload fills in; zero elsewhere. *)
type serve = {
  service : (string * float array) list;  (** per request kind, seconds *)
  queue_wait_ms : float;
  lru_hit_ratio : float;
  lru_evictions : int;
  parse_us : float;
  sleep_overshoot_ms : float;
  repeat_share : float;
  reopt_first_ms : float;
  reopt_repeat_ms : float;
}

let no_serve =
  {
    service = [];
    queue_wait_ms = 0.;
    lru_hit_ratio = 0.;
    lru_evictions = 0;
    parse_us = 0.;
    sleep_overshoot_ms = 0.;
    repeat_share = 0.;
    reopt_first_ms = 0.;
    reopt_repeat_ms = 0.;
  }

let serve_kinds = [ "eval"; "tm_update"; "link"; "reoptimize" ]

let metrics t ~phase1_s ~phase2_s ~jobs ~probes ~serve ~overhead_pct =
  let m = Perfbench.Result.metric in
  let c k = float_of_int (counter t k) in
  let trials = c "local_search.trials" in
  let hits = c "prune.cache_hits" and misses = c "prune.cache_misses" in
  let busy = accum t "pool.worker.busy_seconds" in
  let sweep_s = accum t "eval.sweep.seconds" in
  let quantile_ms samples p =
    if Array.length samples = 0 then 0. else 1e3 *. Perfbench.Stats.quantile samples p
  in
  let service =
    List.concat_map
      (fun kind ->
        let s = Option.value (List.assoc_opt kind serve.service) ~default:[||] in
        [
          m (Printf.sprintf "daemon.%s.service_p50_ms" kind) (quantile_ms s 50.) "ms";
          m (Printf.sprintf "daemon.%s.service_p99_ms" kind) (quantile_ms s 99.) "ms";
        ])
      serve_kinds
  in
  [
    m "optimizer.phase1_s" phase1_s "s";
    m "optimizer.phase2_s" phase2_s "s";
    m "span.phase1a_s" (span_self "phase1a") "s";
    m "span.phase1b_s" (span_self "phase1b") "s";
    m "span.phase1c_s" (span_self "phase1c") "s";
    m "span.phase2_s" (span_self "phase2") "s";
    m "span.criticality_s" (span_self "criticality") "s";
    m "local_search.trials" trials "count";
    m "local_search.accept_ratio" (ratio (c "local_search.accepts") trials) "ratio";
    m "phase1.evals" (c "phase1.evals") "count";
    m "phase2.evals" (c "phase2.evals") "count";
    m "eval_incr.try_arc_us" probes.try_arc_us "us";
    m "prune.aborts" (c "prune.aborts") "count";
    m "prune.abort_ratio" (ratio (c "prune.aborts") trials) "ratio";
    m "delta_cache.hits" hits "count";
    m "delta_cache.hit_ratio" (ratio hits (hits +. misses)) "ratio";
    m "eval.sweeps" (c "eval.sweeps") "count";
    m "eval.sweep_s" sweep_s "s";
    m "eval.sweep.cached_evals" (c "eval.sweep.cached_evals") "count";
    m "eval.sweep.full_evals" (c "eval.sweep.full_evals") "count";
    m "eval.sweep_share" (ratio sweep_s t.wall) "ratio";
    m "routing.compute_us" probes.compute_us "us";
    m "routing.with_failed_arcs_us" probes.with_failed_us "us";
    m "eval.evaluate_ms" probes.evaluate_ms "ms";
    m "pool.busy_s" busy "s";
    m "pool.busy_ratio" (ratio busy (float_of_int jobs *. t.wall)) "ratio";
    m "pool.chunks" (c "pool.worker.chunks") "count";
    m "pool.batches" (c "pool.batches") "count";
  ]
  @ service
  @ [
      m "daemon.queue_wait_ms" serve.queue_wait_ms "ms";
      m "daemon.reopt_first_ms" serve.reopt_first_ms "ms";
      m "daemon.reopt_repeat_ms" serve.reopt_repeat_ms "ms";
      m "lru.hit_ratio" serve.lru_hit_ratio "ratio";
      m "lru.evictions" (float_of_int serve.lru_evictions) "count";
      m "protocol.parse_us" serve.parse_us "us";
      m "bench.sleep_overshoot_ms" serve.sleep_overshoot_ms "ms";
      m "bench.repeat_share" serve.repeat_share "ratio";
      m "gc.minor_mwords" (t.minor /. 1e6) "Mwords";
      m "gc.promoted_mwords" (t.promoted /. 1e6) "Mwords";
      m "gc.major_collections" (float_of_int t.majors) "count";
      m "obs.overhead_pct" overhead_pct "%";
    ]
