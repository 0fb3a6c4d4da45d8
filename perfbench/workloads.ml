(* The three workloads.  Each drives the system only through the public
   entry points its binary calls — Optimizer.optimize (dtr-opt optimize),
   Metrics.summarize_failures (dtr-opt evaluate) and Daemon.handle_line
   (dtr-serve) — checks every output, and returns its timing samples. *)

module Rng = Dtr_util.Rng
module Json = Dtr_util.Json
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Exec = Dtr_exec.Exec
module Pool = Dtr_exec.Pool
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Optimizer = Dtr_core.Optimizer
module Metrics = Dtr_core.Metrics
module Daemon = Dtr_serve.Daemon
module Result = Perfbench.Result
module Stats = Perfbench.Stats

(* A run is a sequence of windows, each timed on its own, and the
   end-to-end metrics are medians over them.  A work window is one unit
   of work: one optimize, one full sweep, or the three requests of one
   closed-loop cycle of the daemon.  A request window holds request
   latencies measured from their due times: for the batch workloads the
   one request is the unit of work itself, for the daemon it is a stretch
   of the open-loop stream.  Every time in an outcome is scaled to the
   reference machine (see README.md, "Why reference-scaled times"). *)
type outcome = {
  jobs : int;  (** domains the workload prices on *)
  setup : float array;  (** seconds per set-up *)
  work : float array;  (** seconds per untraced work window *)
  raw_work : float array;  (** the same, not scaled *)
  latency : float array array;  (** seconds per request, per untraced request window *)
  info : (string * float * string) list;
      (** named figures printed in the run's header *)
  layers : Result.metric list;  (** traced mode only *)
}

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  tally : Result.tally;
  mutable reference : float list;
      (** the reference computation's times, newest first; none in traced
          mode *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- host speed ------------------------------------------------------ *)

(* A time is scaled by [nominal_s / r], r being the reference time measured
   next to it: a window's by the mean of the reference times just before
   and just after it, a set-up batch's by the one just before it.  Traced
   mode measures no reference and scales nothing. *)
let measure_reference ctx =
  if not ctx.trace then begin
    (* In a child process of its own ([main.exe --reference]), so that the
       workload's heap and collector state cannot slow the reference down. *)
    let exe = Sys.executable_name in
    let ic = Unix.open_process_args_in exe [| exe; "--reference" |] in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
    | Unix.WEXITED 0, Some r -> ctx.reference <- r :: ctx.reference
    | _ -> failwith "perfbench: the reference run failed"
  end

let scale_of r = Perfbench.Reference.nominal_s /. r
let current_scale ctx = match ctx.reference with r :: _ -> scale_of r | [] -> 1.

(* [f ()] followed by a reference measurement; returns its result and the
   scale for the times taken inside it. *)
let bracketed ctx f =
  let x = f () in
  match ctx.reference with
  | before :: _ ->
      measure_reference ctx;
      (x, scale_of ((before +. List.hd ctx.reference) /. 2.))
  | [] -> (x, 1.)

(* Set-up is timed in batches: one of at least 3 builds spanning at least
   0.5 s before the first window, keeping the last instance, and one of at
   least 1 build spanning at least 0.1 s after every window, keeping none.
   Spreading the builds over the run lets the median in [setup_s] see the
   machine as the windows do. *)
type 'a setup = {
  build : unit -> 'a;
  discard : 'a -> unit;
  mutable times : float list;  (** newest first *)
}

let setup ?(discard = ignore) build = { build; discard; times = [] }

let set_up ?(min_reps = 3) ?(min_s = 0.5) ctx s =
  let scale = current_scale ctx in
  let rec go reps spent last =
    let x, dt = timed s.build in
    s.times <- (scale *. dt) :: s.times;
    Option.iter s.discard last;
    if reps + 1 < min_reps || spent +. dt < min_s then go (reps + 1) (spent +. dt) (Some x)
    else x
  in
  go 0 0. None

let set_up_again ctx s () = s.discard (set_up ~min_reps:1 ~min_s:0.1 ctx s)
let setup_times s = Array.of_list (List.rev s.times)

(* Untraced mode runs at least [min_windows] windows, then more while the
   next one, taking as long as the last, would end within [ctx.seconds];
   a set-up batch follows each window.  Traced mode runs one untraced and
   one traced window, so per-layer totals do not depend on how fast the
   machine is; the pair gives the tracing overhead.  Returns each window's
   result and wall seconds, in run order. *)
let measure ctx ~min_windows ~totals ~between window =
  let timed_window () = timed window in
  if ctx.trace then [| timed_window (); Layers.traced totals timed_window |]
  else begin
    let t0 = now () and plain = ref [] and last = ref 0. in
    while List.length !plain < min_windows || now () -. t0 +. !last < ctx.seconds do
      let w = timed_window () in
      plain := w :: !plain;
      last := snd w;
      between ()
    done;
    Array.of_list (List.rev !plain)
  end

(* The traced window's time over the untraced one's, minus one, in percent;
   0 outside traced mode. *)
let overhead_pct ctx times =
  if ctx.trace then 100. *. ((times.(1) /. times.(0)) -. 1.) else 0.

(* A batch workload's raw and scaled window times; each unit of work is
   also its one request. *)
let batch ctx ~min_windows ~totals ~between unit_ =
  let runs =
    Array.map fst
      (measure ctx ~min_windows ~totals ~between (fun () -> bracketed ctx (fun () -> snd (timed unit_))))
  in
  let raw = Array.map fst runs in
  (raw, Array.map (fun (dt, scale) -> dt *. scale) runs, overhead_pct ctx raw)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_cost (a : Lexico.t) (b : Lexico.t) = bits_equal a.lambda b.lambda && bits_equal a.phi b.phi

let params =
  { Scenario.quick_params with Scenario.sla = Dtr_cost.Sla.with_theta 0.025 }

(* The instance dtr-opt and dtr-serve build for [-t rand -n nodes -d degree
   -s seed] with the default utilisation and SLA bound. *)
let rand_scenario ~nodes ~degree ~seed =
  let rng = Rng.create seed in
  let graph = Gen.generate rng Gen.Rand_topo ~nodes ~degree in
  let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes:(Graph.num_nodes graph) ~total:1000. in
  let rd, rt =
    Dtr_traffic.Scaling.calibrate graph ~rd ~rt (Dtr_traffic.Scaling.Avg_utilization 0.43)
  in
  Scenario.make ~graph ~rd ~rt ~params

(* ==== optimize_cold ===================================================== *)

(* [dtr-opt optimize -n 12 -s 2008] at jobs=1 (RandTopo, 60 arcs, 9-arc
   Ec).  The answer is fixed by the instance seed, whatever the workload
   seed: these pins are its exact regular and robust costs. *)
let optimize_nodes = 12
let pin_regular = { Lexico.lambda = 0.; phi = 21157.913433956888 }
let pin_robust_normal = { Lexico.lambda = 0.; phi = 23223.150086702681 }
let pin_robust_fail = { Lexico.lambda = 1032.4714278483789; phi = 229586.43561844708 }

let optimize_cold ctx =
  let su = setup (fun () -> rand_scenario ~nodes:optimize_nodes ~degree:5. ~seed:2008) in
  measure_reference ctx;
  let scenario = set_up ctx su in
  let totals = Layers.totals () in
  let last = ref None in
  let unit_ () =
    let sol =
      Optimizer.optimize ~rng:(Rng.create 2009) ~fraction:0.15 ~exec:Exec.serial scenario
    in
    Result.check ctx.tally "optimize_cold: regular and robust costs match the pins"
      (same_cost sol.Optimizer.regular_cost pin_regular
      && same_cost sol.Optimizer.robust_normal_cost pin_robust_normal
      && same_cost sol.Optimizer.robust_fail_cost pin_robust_fail);
    last := Some sol
  in
  let raw_work, work, overhead = batch ctx ~min_windows:3 ~totals ~between:(set_up_again ctx su) unit_ in
  let sol = Option.get !last in
  let layers =
    if not ctx.trace then []
    else
      Layers.metrics totals ~phase1_s:sol.Optimizer.phase1_seconds
        ~phase2_s:sol.Optimizer.phase2_seconds ~jobs:1
        ~probes:(Layers.run_probes scenario sol.Optimizer.robust)
        ~serve:Layers.no_serve ~overhead_pct:overhead
  in
  let cost name (x : Lexico.t) = [ (name ^ "_lambda", x.lambda, "cost"); (name ^ "_phi", x.phi, "cost") ] in
  {
    jobs = 1;
    setup = setup_times su;
    work;
    raw_work;
    latency = Array.map (fun dt -> [| dt |]) work;
    info =
      cost "optimize_regular" sol.Optimizer.regular_cost
      @ cost "optimize_normal" sol.Optimizer.robust_normal_cost
      @ cost "optimize_fail" sol.Optimizer.robust_fail_cost
      @ [ ("optimize_critical_arcs", float_of_int (List.length sol.Optimizer.critical), "count") ];
    layers;
  }

(* ==== sweep_large ======================================================= *)

(* The large tier of the parallel_sweep kernel: PLTopo 250n, degree 6, seed
   4242, every single-link failure, at jobs=2. *)
let sweep_jobs = 2

(* A pinned sample on a fixed input: the first [pin_failures] failures
   priced under the weight setting drawn from seed 0. *)
let pin_failures = 64
let ref_stride = 4
let pin_avg = 53772.515625
let pin_top10 = 53832.571428571428
let pin_phi = 41439260594.488213

let same_summary (a : Metrics.failure_summary) (b : Metrics.failure_summary) =
  bits_equal a.avg b.avg && bits_equal a.top10 b.top10 && bits_equal a.phi_total b.phi_total
  && a.per_failure = b.per_failure
  && Array.for_all2 bits_equal a.phi_per_failure b.phi_per_failure

let sweep_large ctx =
  let build () =
    let scenario =
      Scenario.random_instance ~params:Scenario.quick_params ~nodes:250 ~degree:6.
        (Rng.create 4242) Gen.Pl_topo
    in
    let g = scenario.Scenario.graph in
    let wmax = scenario.Scenario.params.Scenario.wmax in
    let w = Weights.random (Rng.create ctx.seed) ~num_arcs:(Graph.num_arcs g) ~wmax in
    let pool = Pool.create ~jobs:sweep_jobs in
    (scenario, w, Failure.all_single_arcs g, pool)
  in
  let su = setup ~discard:(fun (_, _, _, p) -> Pool.shutdown p) build in
  measure_reference ctx;
  let scenario, w, failures, pool = set_up ctx su in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let exec = Exec.of_pool pool in
  let totals = Layers.totals () in
  let results = ref [] in
  let unit_ () = results := Metrics.summarize_failures scenario ~exec w failures :: !results in
  let raw_work, work, overhead = batch ctx ~min_windows:3 ~totals ~between:(set_up_again ctx su) unit_ in
  (* The bit-identity invariant: every jobs=2 sweep is the same, and its
     failure states price exactly as serially (jobs=1) priced ones do.  The
     serial reference prices every [ref_stride]-th failure, a quarter of a
     sweep's time; each failure state is priced independently of the others
     in its batch. *)
  let reference =
    Metrics.summarize_failures scenario ~exec:Exec.serial w
      (List.filteri (fun i _ -> i mod ref_stride = 0) failures)
  in
  let first = List.hd (List.rev !results) in
  List.iter
    (fun s ->
      Result.check ctx.tally "sweep_large: jobs=2 sweep is bit-identical to jobs=1"
        (same_summary s first
        && Array.for_all Fun.id
             (Array.mapi
                (fun k v ->
                  v = s.Metrics.per_failure.(k * ref_stride)
                  && bits_equal reference.Metrics.phi_per_failure.(k)
                       s.Metrics.phi_per_failure.(k * ref_stride))
                reference.Metrics.per_failure)))
    !results;
  let g = scenario.Scenario.graph in
  let pinned =
    let wmax = scenario.Scenario.params.Scenario.wmax in
    let w0 = Weights.random (Rng.create 0) ~num_arcs:(Graph.num_arcs g) ~wmax in
    Metrics.summarize_failures scenario ~exec:Exec.serial w0
      (List.filteri (fun i _ -> i < pin_failures) failures)
  in
  Result.check ctx.tally "sweep_large: pinned sample matches its avg, top-10% and Phi_fail"
    (bits_equal pinned.Metrics.avg pin_avg
    && bits_equal pinned.Metrics.top10 pin_top10
    && bits_equal pinned.Metrics.phi_total pin_phi);
  let layers =
    if not ctx.trace then []
    else
      Layers.metrics totals ~phase1_s:0. ~phase2_s:0. ~jobs:sweep_jobs
        ~probes:(Layers.run_probes scenario w) ~serve:Layers.no_serve ~overhead_pct:overhead
  in
  {
    jobs = sweep_jobs;
    setup = setup_times su;
    work;
    raw_work;
    latency = Array.map (fun dt -> [| dt |]) work;
    info =
      [
        ("sweep_failures_per_s", float_of_int (List.length failures) /. Stats.median work, "1/s");
        ("sweep_avg", first.Metrics.avg, "violations");
        ("sweep_top10", first.Metrics.top10, "violations");
        ("sweep_phi_fail", first.Metrics.phi_total, "cost");
        ("pinned_avg", pinned.Metrics.avg, "violations");
        ("pinned_top10", pinned.Metrics.top10, "violations");
        ("pinned_phi_fail", pinned.Metrics.phi_total, "cost");
      ];
    layers;
  }

(* ==== serve_mixed ======================================================= *)

(* RandTopo 50n, degree 4, seed 2008, holding the committed incumbent and
   critical set (see data/README.md for how they were made). *)
let data_dir = Filename.concat "perfbench" "data"
let stream_rate = 200.
let reopt_budget = {|"max_sweeps": 1, "max_rounds": 1|}

(* Φ of J after the first and after the repeat warm re-optimization of a
   cycle; every cycle starts from the same state, so these are fixed. *)
let pin_reopt_phi = 7450375.5395570323
let pin_rewarm_phi = 7462925.7203063015

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_incumbent () =
  let w = Dtr_io.Weights_io.load ~path:(Filename.concat data_dir "serve50.weights") in
  let critical =
    read_file (Filename.concat data_dir "serve50.critical")
    |> String.split_on_char ' '
    |> List.filter_map (fun s -> int_of_string_opt (String.trim s))
  in
  (w, critical)

let new_daemon scenario (incumbent, critical) =
  Daemon.create
    {
      Daemon.scenario;
      incumbent;
      critical;
      fraction = Some 0.15;
      seed = 2008;
      exec = Exec.serial;
      cache_capacity = 64;
      metrics = None;
    }

(* A reply: [ok] and the result object. *)
let reply line =
  match Json.parse line with
  | Ok j ->
      let ok = Json.member "ok" j = Some (Json.Bool true) in
      (ok, Option.value (Json.member "result" j) ~default:Json.Null)
  | Error _ -> (false, Json.Null)

let num key j = Option.bind (Json.member key j) Json.to_float_opt

(* A window of the run is [segment] requests of the open-loop stream, a
   set-up batch, one closed-loop cycle, and [segment] requests more, with
   a reference measurement after each stretch and each warm
   re-optimization.  Alternating the stream and the cycles keeps both
   kinds of sample spread over the whole run. *)
let segment = 200

let serve_mixed ctx =
  let build () =
    let scenario = rand_scenario ~nodes:50 ~degree:4. ~seed:2008 in
    let incumbent = load_incumbent () in
    (scenario, incumbent, new_daemon scenario incumbent)
  in
  let su = setup build in
  measure_reference ctx;
  let scenario, incumbent, daemon = set_up ctx su in
  let g = scenario.Scenario.graph in
  (* Enough stream for any run: a window takes over two seconds. *)
  let count = segment * (4 + int_of_float ctx.seconds) in
  let stream =
    Perfbench.Serve_stream.generate ~seed:ctx.seed ~rate:stream_rate ~count
      ~arcs:(Graph.num_arcs g) ~nodes:(Graph.num_nodes g)
  in
  let lines = Array.mapi (fun i r -> Perfbench.Serve_stream.line ~id:i r) stream.requests in
  let replies = Array.make count "" in
  let served = ref 0 in
  (* (a) the open-loop stretch: requests [first, first + segment) *)
  let run_segment () =
    if !served + segment > count then failwith "serve_mixed: the stream ran out";
    let first = !served in
    let base = now () +. 0.01 -. stream.due.(first) in
    let samples =
      Perfbench.Open_loop.run Perfbench.Open_loop.wall_clock
        ~due:(Array.init segment (fun k -> base +. stream.due.(first + k)))
        ~serve:(fun k -> replies.(first + k) <- fst (Daemon.handle_line daemon lines.(first + k)))
    in
    served := first + segment;
    (first, samples, Dtr_obs.Metric.enabled ())
  in
  (* (b) the closed loop: drift, warm re-optimization, repeat; returns the
     raw and the scaled time of its three requests *)
  let reopt_times = ref [] and last_phi = ref (nan, nan) in
  let cycle () =
    let d = new_daemon scenario incumbent in
    let send line =
      let (line, _), dt = timed (fun () -> Daemon.handle_line d line) in
      (reply line, dt)
    in
    let warm id =
      Printf.sprintf {|{"id": %d, "event": "reoptimize", "mode": "warm", %s}|} id reopt_budget
    in
    let (((drift_ok, _), t0), ((ok1, r1), t1)), k1 =
      bracketed ctx (fun () ->
          let drift = send {|{"id": 1, "event": "tm_update", "model": "gaussian", "eps": 0.1}|} in
          (drift, send (warm 2)))
    in
    let ((ok2, r2), t2), k2 = bracketed ctx (fun () -> send (warm 3)) in
    reopt_times := (k1 *. t1, k2 *. t2) :: !reopt_times;
    let phi r = Option.value (num "phi" r) ~default:nan in
    last_phi := (phi r1, phi r2);
    Result.check ctx.tally "serve_mixed: drift and warm re-optimizations are ok and match the pins"
      (drift_ok && ok1 && ok2 && bits_equal (phi r1) pin_reopt_phi && bits_equal (phi r2) pin_rewarm_phi);
    (t0 +. t1 +. t2, (k1 *. (t0 +. t1)) +. (k2 *. t2))
  in
  let between = set_up_again ctx su in
  let scaled k (first, samples, traced) =
    let scale (s : Perfbench.Open_loop.sample) =
      { s with latency = k *. s.latency; service = k *. s.service; wait = k *. s.wait }
    in
    (first, Array.map scale samples, traced)
  in
  let window () =
    let seg, k1 = bracketed ctx run_segment in
    between ();
    let raw, work = cycle () in
    let seg', k2 = bracketed ctx run_segment in
    ([ scaled k1 seg; scaled k2 seg' ], raw, work)
  in
  let totals = Layers.totals () in
  let windows = Array.map fst (measure ctx ~min_windows:3 ~totals ~between window) in
  let raw_work = Array.map (fun (_, t, _) -> t) windows in
  let overhead = overhead_pct ctx raw_work in
  let segments = List.concat_map (fun (segs, _, _) -> segs) (Array.to_list windows) in
  (* Every reply is ok, and a what-if repeated in one daemon state gets the
     answer it got the first time, whether the LRU held it or not. *)
  let answers = Hashtbl.create 1024 in
  for i = 0 to !served - 1 do
    let ok, result = reply replies.(i) in
    let consistent =
      match stream.requests.(i) with
      | Perfbench.Serve_stream.Eval spec -> (
          let answer = (num "lambda" result, num "phi" result, num "violations" result) in
          let key = (stream.state.(i), spec) in
          match Hashtbl.find_opt answers key with
          | Some first -> first = answer
          | None ->
              Hashtbl.add answers key answer;
              true)
      | _ -> true
    in
    Result.check ctx.tally
      (Printf.sprintf "serve_mixed: request %d is ok and repeats its earlier answer" i)
      (ok && consistent)
  done;
  let repeat_share = Perfbench.Serve_stream.repeat_share stream ~n:!served in
  let firsts = Array.of_list (List.map fst !reopt_times)
  and repeats = Array.of_list (List.map snd !reopt_times) in
  let kind_of first k = Perfbench.Serve_stream.kind stream.requests.(first + k) in
  (* Samples of one request kind over the given segments. *)
  let of_kind segs kind f =
    List.concat_map
      (fun (first, samples, _) ->
        List.filteri (fun k _ -> kind_of first k = kind) (Array.to_list samples) |> List.map f)
      segs
    |> Array.of_list
  in
  let ms f a = if Array.length a = 0 then 0. else 1e3 *. f a in
  let latency s = s.Perfbench.Open_loop.latency in
  let plain = List.filter (fun (_, _, traced) -> not traced) segments in
  let eval_lat = of_kind plain "eval" latency in
  let write_lat = Array.append (of_kind plain "tm_update" latency) (of_kind plain "link" latency) in
  let layers =
    if not ctx.trace then []
    else
      (* The daemon's figures cover the whole run: both stream windows and
         both cycles. *)
      let samples = Array.concat (List.map (fun (_, s, _) -> s) segments) in
      let service kind = (kind, of_kind segments kind (fun s -> s.Perfbench.Open_loop.service)) in
      let stats = Daemon.cache_stats daemon in
      let lookups = stats.Dtr_util.Lru.hits + stats.Dtr_util.Lru.misses in
      let parse_us =
        1e6
        *. Layers.probe ~name:"protocol_parse" ~reps:256 (fun i ->
               Dtr_serve.Protocol.parse_request lines.(i))
      in
      let overshoots =
        Array.to_list samples |> List.filter_map (fun s -> s.Perfbench.Open_loop.overshoot)
      in
      let serve =
        {
          Layers.service =
            [ service "eval"; service "tm_update"; service "link";
              ("reoptimize", Array.append firsts repeats) ];
          queue_wait_ms = ms Stats.mean (Array.map (fun s -> s.Perfbench.Open_loop.wait) samples);
          lru_hit_ratio =
            (if lookups = 0 then 0. else float_of_int stats.Dtr_util.Lru.hits /. float_of_int lookups);
          lru_evictions = stats.Dtr_util.Lru.evictions;
          parse_us;
          sleep_overshoot_ms = ms Stats.mean (Array.of_list overshoots);
          repeat_share;
          reopt_first_ms = ms Stats.median firsts;
          reopt_repeat_ms = ms Stats.median repeats;
        }
      in
      Layers.metrics totals ~phase1_s:0. ~phase2_s:0. ~jobs:1
        ~probes:(Layers.run_probes scenario (fst incumbent)) ~serve ~overhead_pct:overhead
  in
  let p99 a = Stats.quantile a 99. in
  {
    jobs = 1;
    setup = setup_times su;
    work = Array.map (fun (_, _, t) -> t) windows;
    raw_work;
    latency = Array.of_list (List.map (fun (_, samples, _) -> Array.map latency samples) plain);
    info =
      [
        ("serve_requests", float_of_int !served, "count");
        ("serve_repeat_share", repeat_share, "ratio");
        ("serve_eval_p50_ms", ms Stats.median eval_lat, "ms");
        ("serve_eval_p99_ms", ms p99 eval_lat, "ms");
        ("serve_update_p99_ms", ms p99 write_lat, "ms");
        ("serve_reopt_s", Stats.median firsts, "s");
        ("serve_rewarm_s", Stats.median repeats, "s");
        ("serve_first_reopt_phi", fst !last_phi, "cost");
        ("serve_reopt_phi", snd !last_phi, "cost");
      ];
    layers;
  }

let all = [ ("optimize_cold", optimize_cold); ("sweep_large", sweep_large); ("serve_mixed", serve_mixed) ]
