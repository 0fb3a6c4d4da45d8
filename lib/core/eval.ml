module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
module Sla = Dtr_cost.Sla
module Delay_model = Dtr_cost.Delay_model
module Congestion = Dtr_cost.Congestion
module Exec = Dtr_exec.Exec
module Scratch = Dtr_exec.Scratch

type detail = {
  cost : Lexico.t;
  violations : int;
  unreachable_pairs : int;
  loads : float array;
  throughput_loads : float array;
  pair_delays : (int * int * float) array;
}

(* One destination's SLA penalty subtotal: expected-delay DP over the ECMP
   DAG, then a left fold (from 0, in source order) of the pair penalties.
   Keeping the fold per-destination lets the incremental engine cache the
   subtotal and re-sum destination subtotals bit-identically (0. + x = x, so
   a fold of per-destination folds equals the flat fold). *)
let dest_sla (scenario : Scenario.t) ~routing_d ~arc_delay ~dense_rd ~excluded ~dest
    ~on_pair =
  let sla = scenario.Scenario.params.Scenario.sla in
  let n = Array.length dense_rd in
  let del = Routing.expected_delays_to routing_d ~arc_delay ~dest in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for src = 0 to n - 1 do
    if src <> dest && (not (excluded src)) && dense_rd.(src).(dest) > 0. then begin
      let xi = del.(src) in
      lambda := !lambda +. Sla.pair_penalty sla xi;
      if xi = Float.infinity then begin
        incr unreachable;
        incr violations
      end
      else if Sla.is_violation sla xi then incr violations;
      on_pair src dest xi
    end
  done;
  (!lambda, !violations, !unreachable)

let no_pair = fun _ _ _ -> ()

(* Dense views + delay-sink flags: the scenario's own matrices come with
   cached ones; overrides (perturbed traffic) fall back to a local scan. *)
let dense_inputs (scenario : Scenario.t) ~rd ~rt =
  let dense_rd, sinks =
    if rd == scenario.Scenario.rd then
      (scenario.Scenario.dense_rd, scenario.Scenario.delay_sinks)
    else begin
      let dense = Matrix.dense rd in
      let n = Array.length dense in
      let sinks = Array.make n false in
      for src = 0 to n - 1 do
        for dest = 0 to n - 1 do
          if src <> dest && dense.(src).(dest) > 0. then sinks.(dest) <- true
        done
      done;
      (dense, sinks)
    end
  in
  let dense_rt =
    if rt == scenario.Scenario.rt then scenario.Scenario.dense_rt else Matrix.dense rt
  in
  (dense_rd, dense_rt, sinks)

(* Cost computation given already-computed per-class routing states. *)
let assess (scenario : Scenario.t) ~routing_d ~routing_t ~exclude_node ~dense_rd
    ~dense_rt ~sinks ~want_pair_delays =
  let g = scenario.Scenario.graph in
  let params = scenario.Scenario.params in
  let num_arcs = Graph.num_arcs g in
  let throughput_loads = Array.make num_arcs 0. in
  let (_ : float) =
    Routing.add_loads routing_t ~demands:dense_rt ?exclude_node ~into:throughput_loads ()
  in
  let loads = Array.copy throughput_loads in
  let (_ : float) =
    Routing.add_loads routing_d ~demands:dense_rd ?exclude_node ~into:loads ()
  in
  let arc_delay = Delay_model.arc_delays params.Scenario.delay g ~loads in
  (* Lambda: one expected-delay DP per destination that sinks delay traffic. *)
  let n = Graph.num_nodes g in
  let excluded v = match exclude_node with None -> false | Some x -> x = v in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  let delays_out = ref [] in
  let on_pair =
    if want_pair_delays then fun src dest xi -> delays_out := (src, dest, xi) :: !delays_out
    else no_pair
  in
  for dest = 0 to n - 1 do
    if sinks.(dest) && not (excluded dest) then begin
      let lam, viol, unreach =
        dest_sla scenario ~routing_d ~arc_delay ~dense_rd ~excluded ~dest ~on_pair
      in
      lambda := !lambda +. lam;
      violations := !violations + viol;
      unreachable := !unreachable + unreach
    end
  done;
  let carries_throughput id = throughput_loads.(id) > 1e-9 in
  let phi = Congestion.total g ~loads ~carries_throughput in
  {
    cost = Lexico.make ~lambda:!lambda ~phi;
    violations = !violations;
    unreachable_pairs = !unreachable;
    loads;
    throughput_loads;
    pair_delays = Array.of_list (List.rev !delays_out);
  }

let failed_arcs_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun id dead -> if dead then acc := id :: !acc) mask;
  !acc

(* Per-domain sweep working memory: Dijkstra + dynamic-SPF repair buffers, a
   failure mask, and the cached sweep engine's per-arc flag arrays, cached
   across parallel operations (pool workers are persistent domains) and keyed
   by graph identity so concurrent scenarios do not collide.  The cache is
   bounded; evicting an entry only costs a reallocation on the next sweep
   touching that graph. *)
type sweep_scratch = {
  buffers : Routing.buffers;
  mask : bool array;
  touched : bool array;  (* per-arc: some replaced row differs here *)
  dest_flag : bool array;  (* per-destination mark set, false between uses *)
}

let make_sweep_scratch g =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  {
    buffers = Routing.make_buffers g;
    mask = Array.make m false;
    touched = Array.make m false;
    dest_flag = Array.make n false;
  }

let sweep_slot : (Graph.t * sweep_scratch) list ref Scratch.t =
  Scratch.create (fun () -> ref [])

let max_cached_graphs = 8

let sweep_scratch_for g =
  let cache = Scratch.get sweep_slot in
  match List.find_opt (fun (g', _) -> g' == g) !cache with
  | Some (_, s) -> s
  | None ->
      let s = make_sweep_scratch g in
      cache := (g, s) :: List.filteri (fun i _ -> i < max_cached_graphs - 1) !cache;
      s

let resolve_exec = function Some e -> e | None -> Exec.default ()

let evaluate (scenario : Scenario.t) ?failure ?rd ?rt ?(want_pair_delays = false) w =
  let g = scenario.Scenario.graph in
  let rd = match rd with Some m -> m | None -> scenario.Scenario.rd in
  let rt = match rt with Some m -> m | None -> scenario.Scenario.rt in
  let dense_rd, dense_rt, sinks = dense_inputs scenario ~rd ~rt in
  let disabled, exclude_node =
    match failure with
    | None -> (None, None)
    | Some f -> (Some (Failure.mask g f), Failure.excluded_node f)
  in
  let buffers = Routing.make_buffers g in
  let routing_d = Routing.compute g ~weights:(Weights.delay_of w) ~buffers ?disabled () in
  let routing_t =
    Routing.compute g ~weights:(Weights.throughput_of w) ~buffers ?disabled ()
  in
  assess scenario ~routing_d ~routing_t ~exclude_node ~dense_rd ~dense_rt ~sinks
    ~want_pair_delays

let cost scenario ?failure w = (evaluate scenario ?failure w).cost

(* One failure scenario priced against shared (read-only) no-failure bases,
   with caller-supplied working memory.  This is the unit of work both the
   serial loops and the domain pool execute; it allocates only the
   per-failure routing views and load arrays, never scratch. *)
let assess_failure (scenario : Scenario.t) ~buffers ~mask ~base_d ~base_t ~dense_rd
    ~dense_rt ~sinks w f =
  let g = scenario.Scenario.graph in
  Failure.set_mask g f mask;
  let failed = failed_arcs_of_mask mask in
  let routing_d =
    Routing.with_failed_arcs ~buffers base_d ~weights:(Weights.delay_of w)
      ~disabled:mask ~failed
  in
  let routing_t =
    Routing.with_failed_arcs ~buffers base_t ~weights:(Weights.throughput_of w)
      ~disabled:mask ~failed
  in
  assess scenario ~routing_d ~routing_t ~exclude_node:(Failure.excluded_node f)
    ~dense_rd ~dense_rt ~sinks ~want_pair_delays:false

(* Sweep instrumentation, read by the CLI's --verbose breakdown and the
   observability report.  Per-domain sharded dtr_obs metrics, so
   overlapping sweeps (concurrent callers, nested exec contexts) can never
   lose updates.  These counters stay on unconditionally: they cost one DLS
   lookup and a few array writes per *sweep*, not per evaluation. *)
let c_sweeps = Dtr_obs.Metric.Counter.create "eval.sweeps"
let c_cache_builds = Dtr_obs.Metric.Counter.create "eval.sweep.cache_builds"
let c_cached_evals = Dtr_obs.Metric.Counter.create "eval.sweep.cached_evals"
let c_full_evals = Dtr_obs.Metric.Counter.create "eval.sweep.full_evals"
let c_seconds = Dtr_obs.Metric.Accum.create "eval.sweep.seconds"

(* --- Cached failure pricing (the dynamic-SPF sweep engine) --------------

   A failure sweep evaluates many single-failure states against the same
   no-failure bases.  The pieces of the full assessment are cached once per
   sweep, per (destination, class):

   - the per-arc load contribution row of every destination (each arc gets
     at most one addition per destination, so re-summing rows in destination
     order reproduces [Routing.add_loads] bit-for-bit);
   - the per-arc delays of the base loads;
   - every delay-sink destination's SLA subtotal.

   Pricing a failure then only recomputes the rows of the destinations whose
   DAG lost an arc, re-sums the {e touched} arcs (those where some replaced
   row differs) in destination order, patches exactly the touched arcs'
   delays, and recomputes SLA subtotals only for destinations that were
   re-routed or whose DAG reads a changed delay — the same bit-identity
   argument the incremental single-arc engine ([Eval_incr]) established. *)

type sweep_cache = {
  rows_d : float array array; (* rows_d.(dest).(arc): delay-class share *)
  rows_t : float array array;
  users_d : int list array; (* users_d.(arc): dests whose DAG uses the arc *)
  users_t : int list array; (* both in increasing destination order *)
  base_tloads : float array;
  base_loads : float array;
  base_delay : float array;
  base_phi : float array; (* per-arc congestion term (0. off the L set) *)
  base_lam : float array;
  base_viol : int array;
  base_unreach : int array;
}

let contribution_rows routing ~demands ~n ~m =
  Array.init n (fun dest ->
      let row = Array.make m 0. in
      let (_ : float) = Routing.add_loads_dest routing ~demands ~dest ~into:row in
      row)

(* Summing every destination's row in destination order matches the
   [add_loads] accumulation bit-for-bit: each arc receives at most one
   addition per destination there, and adding the [0.] of a non-contributing
   destination is a bitwise no-op on the non-negative partial sums. *)
let sum_rows ~into rows =
  let m = Array.length into in
  Array.iter
    (fun row ->
      for a = 0 to m - 1 do
        into.(a) <- into.(a) +. row.(a)
      done)
    rows

(* DAG membership inverted: which destinations' ECMP DAGs contain each arc.
   Sweeping destinations downwards leaves every per-arc list in increasing
   order — the order [Routing.with_failed_arcs ~changed] requires. *)
let arc_users routing ~n ~m =
  let users = Array.make m [] in
  for dest = n - 1 downto 0 do
    Routing.iter_dag_arcs routing ~dest (fun id -> users.(id) <- dest :: users.(id))
  done;
  users

let build_sweep_cache (scenario : Scenario.t) ~base_d ~base_t ~dense_rd ~dense_rt
    ~sinks =
  let g = scenario.Scenario.graph in
  let params = scenario.Scenario.params in
  let cap = Graph.arc_capacities g in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let rows_t = contribution_rows base_t ~demands:dense_rt ~n ~m in
  let rows_d = contribution_rows base_d ~demands:dense_rd ~n ~m in
  let users_t = arc_users base_t ~n ~m in
  let users_d = arc_users base_d ~n ~m in
  let base_tloads = Array.make m 0. in
  sum_rows ~into:base_tloads rows_t;
  let base_loads = Array.copy base_tloads in
  sum_rows ~into:base_loads rows_d;
  let base_delay = Delay_model.arc_delays params.Scenario.delay g ~loads:base_loads in
  let base_phi =
    Array.init m (fun a ->
        if base_tloads.(a) > 1e-9 then
          Congestion.arc_cost ~capacity:cap.(a) ~load:base_loads.(a)
        else 0.)
  in
  let base_lam = Array.make n 0. in
  let base_viol = Array.make n 0 in
  let base_unreach = Array.make n 0 in
  for dest = 0 to n - 1 do
    if sinks.(dest) then begin
      let lam, viol, unreach =
        dest_sla scenario ~routing_d:base_d ~arc_delay:base_delay ~dense_rd
          ~excluded:(fun _ -> false) ~dest ~on_pair:no_pair
      in
      base_lam.(dest) <- lam;
      base_viol.(dest) <- viol;
      base_unreach.(dest) <- unreach
    end
  done;
  {
    rows_d;
    rows_t;
    users_d;
    users_t;
    base_tloads;
    base_loads;
    base_delay;
    base_phi;
    base_lam;
    base_viol;
    base_unreach;
  }

(* One failure priced from the sweep cache.  Only valid when the failure
   excludes no node (a node failure also drops the node's demands, which
   invalidates the cached rows — those fall back to [assess_failure]).  The
   scratch's [touched] and [dest_flag] arrays must be (and are left)
   all-false between calls. *)
let assess_failure_cached (scenario : Scenario.t) ~cache ~scratch ~base_d ~base_t
    ~dense_rd ~dense_rt ~sinks w f =
  let g = scenario.Scenario.graph in
  let params = scenario.Scenario.params in
  let cap = Graph.arc_capacities g and prop = Graph.arc_prop_delays g in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let { buffers; mask; touched; dest_flag } = scratch in
  Failure.set_mask g f mask;
  let failed = failed_arcs_of_mask mask in
  (* Destinations whose DAG uses a failed arc, read off the cache's per-arc
     destination lists — exactly the ones [Routing.with_failed_arcs]
     re-derives; every other destination's rows, distances and hop rows are
     shared with the base verbatim. *)
  let changed_from users =
    List.iter
      (fun id -> List.iter (fun dest -> dest_flag.(dest) <- true) users.(id))
      failed;
    let acc = ref [] in
    for dest = n - 1 downto 0 do
      if dest_flag.(dest) then acc := dest :: !acc
    done;
    !acc
  in
  let clear_flags = List.iter (fun dest -> dest_flag.(dest) <- false) in
  let changed_t = changed_from cache.users_t in
  clear_flags changed_t;
  (* The delay-class marks stay set: the SLA pass below extends them with the
     destinations whose DAG reads a changed arc delay. *)
  let changed_d = changed_from cache.users_d in
  let routing_d =
    Routing.with_failed_arcs ~buffers ~changed:changed_d base_d
      ~weights:(Weights.delay_of w) ~disabled:mask ~failed
  in
  let routing_t =
    Routing.with_failed_arcs ~buffers ~changed:changed_t base_t
      ~weights:(Weights.throughput_of w) ~disabled:mask ~failed
  in
  let touched_list = ref [] in
  let mark_touched a =
    if not touched.(a) then begin
      touched.(a) <- true;
      touched_list := a :: !touched_list
    end
  in
  (* A replaced row can differ from the cached one only on the union of the
     old and new DAG supports: contributions are zero everywhere else. *)
  let replace_rows rows base routing demands changed =
    List.map
      (fun dest ->
        let row = Array.make m 0. in
        let (_ : float) = Routing.add_loads_dest routing ~demands ~dest ~into:row in
        let old = rows.(dest) in
        let cmp a = if row.(a) <> old.(a) then mark_touched a in
        Routing.iter_dag_arcs base ~dest cmp;
        Routing.iter_dag_arcs routing ~dest cmp;
        (dest, row))
      changed
  in
  let new_t = replace_rows cache.rows_t base_t routing_t dense_rt changed_t in
  let new_d = replace_rows cache.rows_d base_d routing_d dense_rd changed_d in
  let tloads = Array.copy cache.base_tloads in
  let loads = Array.copy cache.base_loads in
  let cur_t = Array.copy cache.rows_t in
  List.iter (fun (dest, row) -> cur_t.(dest) <- row) new_t;
  let cur_d = Array.copy cache.rows_d in
  List.iter (fun (dest, row) -> cur_d.(dest) <- row) new_d;
  (* Re-sum only the touched arcs, in destination order: per-arc
     accumulations across destinations are independent, so untouched arcs
     keep the cached totals bit-for-bit. *)
  List.iter
    (fun a ->
      let tl = ref 0. in
      for dest = 0 to n - 1 do
        tl := !tl +. cur_t.(dest).(a)
      done;
      tloads.(a) <- !tl;
      let l = ref !tl in
      for dest = 0 to n - 1 do
        l := !l +. cur_d.(dest).(a)
      done;
      loads.(a) <- !l)
    !touched_list;
  let arc_delay = Array.copy cache.base_delay in
  let delay_arcs = ref [] in
  List.iter
    (fun a ->
      let d =
        Delay_model.arc_delay params.Scenario.delay ~capacity:cap.(a)
          ~prop:prop.(a) ~load:loads.(a)
      in
      (* The queueing term is 0 up to utilisation µ, so most touched arcs
         keep their propagation-only delay — and every delay-DP over a DAG
         that reads no changed delay keeps its cached subtotal. *)
      if d <> arc_delay.(a) then begin
        arc_delay.(a) <- d;
        delay_arcs := a :: !delay_arcs
      end)
    !touched_list;
  (* An unchanged destination shares the base DAG, so "its DAG reads a
     changed delay" is exactly membership in some changed arc's user list. *)
  List.iter
    (fun a -> List.iter (fun dest -> dest_flag.(dest) <- true) cache.users_d.(a))
    !delay_arcs;
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for dest = 0 to n - 1 do
    if sinks.(dest) then begin
      let lam, viol, unreach =
        if dest_flag.(dest) then
          dest_sla scenario ~routing_d ~arc_delay ~dense_rd
            ~excluded:(fun _ -> false) ~dest ~on_pair:no_pair
        else (cache.base_lam.(dest), cache.base_viol.(dest), cache.base_unreach.(dest))
      in
      lambda := !lambda +. lam;
      violations := !violations + viol;
      unreachable := !unreachable + unreach
    end
  done;
  (* Congestion from cached per-arc terms, re-evaluated only where a load
     changed.  Adding the [0.] of an arc outside the throughput set matches
     [Congestion.total]'s skip bit-for-bit: the partial sums are
     non-negative, and [x +. 0. = x] then. *)
  let phi = ref 0. in
  for a = 0 to m - 1 do
    let term =
      if touched.(a) then
        if tloads.(a) > 1e-9 then
          Congestion.arc_cost ~capacity:cap.(a) ~load:loads.(a)
        else 0.
      else cache.base_phi.(a)
    in
    phi := !phi +. term
  done;
  List.iter (fun a -> touched.(a) <- false) !touched_list;
  Array.fill dest_flag 0 n false;
  {
    cost = Lexico.make ~lambda:!lambda ~phi:!phi;
    violations = !violations;
    unreachable_pairs = !unreachable;
    loads;
    throughput_loads = tloads;
    pair_delays = [||];
  }

type bounded_sweep =
  | Swept of Lexico.t
  | Aborted_at of Lexico.t

(* Failures priced per block when a bounded sweep runs on a pool: a multiple
   of the job count, so every domain has work, and small, so a sweep that
   stops early prices little past the stopping failure.  A block costs one
   pool round trip (about 6 µs on a 2-core x86 VM) against tens to
   hundreds of µs per failure priced.  At 2 per job, a 16-node daemon's
   warm re-optimizations price 27% fewer failures than with one block per
   sweep, while a cold optimize, whose sweeps mostly stop in their last
   failures, pays about 3-4x the round trips for little saved;
   EXPERIMENTS.md has the counts and timings. *)
let block_per_job = 2

(* The sweep core, over the scenario's own matrices: the details of the
   priced failures in scenario order, and whether [stop] cut the sweep
   short.  The dynamic-SPF sweep cache (about the price of one normal
   assessment) is read by every cacheable failure.

   Failures are priced in blocks with [Exec.map]: the whole array when
   there is no [stop], one failure at a time under a serial context, and
   [block_per_job * jobs] otherwise.  Failure [i]'s detail lands at index
   [i] whichever domain priced it.  [stop] then sees the running compound
   (from [Lexico.zero]) after each failure of the block, in order: per-failure
   costs are componentwise non-negative, so it is a monotone lower bound of
   the total, and the sweep is truncated at the first failure where it
   fires.  The result — details, [stopped] and the counters below — is
   therefore the same at every job count; a pool only prices, and drops,
   at most the rest of the last block.  The cache is built before the first
   block that holds a cacheable failure, so a sweep that stops first, or
   never prices a cacheable failure, pays nothing for it. *)
let sweep_array (scenario : Scenario.t) ~exec ~base_d ~base_t ?stop w failures =
  let g = scenario.Scenario.graph in
  let dense_rd = scenario.Scenario.dense_rd
  and dense_rt = scenario.Scenario.dense_rt
  and sinks = scenario.Scenario.delay_sinks in
  let num = Array.length failures in
  let t0 = Unix.gettimeofday () in
  (* Scenario id for the flight recorder: a structural hash is stable within
     a run, so traced sweeps of the same instance correlate. *)
  let trace_id =
    if Dtr_obs.Trace.enabled () then Hashtbl.hash scenario land 0x3FFFFFFF else 0
  in
  if Dtr_obs.Trace.enabled () then
    Dtr_obs.Trace.emit_sweep_begin ~scenario:trace_id ~failures:num;
  let use_cache = num >= 2 in
  let cacheable f = use_cache && Failure.excluded_node f = None in
  let cache = ref None in
  let get_cache () =
    match !cache with
    | Some c -> c
    | None ->
        let c = build_sweep_cache scenario ~base_d ~base_t ~dense_rd ~dense_rt ~sinks in
        cache := Some c;
        Dtr_obs.Metric.Counter.incr c_cache_builds;
        c
  in
  let price f =
    let scratch = sweep_scratch_for g in
    if cacheable f then
      assess_failure_cached scenario ~cache:(get_cache ()) ~scratch ~base_d ~base_t
        ~dense_rd ~dense_rt ~sinks w f
    else
      assess_failure scenario ~buffers:scratch.buffers ~mask:scratch.mask ~base_d
        ~base_t ~dense_rd ~dense_rt ~sinks w f
  in
  let block =
    match (stop, Exec.jobs exec) with
    | None, _ -> max 1 num
    | Some _, 1 -> 1
    | Some _, jobs -> block_per_job * jobs
  in
  let blocks = ref [] and acc = ref Lexico.zero in
  let stopped = ref false and lo = ref 0 in
  while (not !stopped) && !lo < num do
    let lo' = !lo in
    let len = min block (num - lo') in
    (* Built here, on the calling domain, before the pool reads it. *)
    let rec any_cacheable i =
      i < lo' + len && (cacheable failures.(i) || any_cacheable (i + 1))
    in
    if Option.is_none !cache && any_cacheable lo' then ignore (get_cache () : sweep_cache);
    let priced = Exec.map exec ~n:len ~f:(fun k -> price failures.(lo' + k)) in
    let kept =
      match stop with
      | None -> len
      | Some s ->
          let k = ref 0 in
          while (not !stopped) && !k < len do
            acc := Lexico.add !acc priced.(!k).cost;
            stopped := s !acc;
            incr k
          done;
          !k
    in
    blocks := (if kept = len then priced else Array.sub priced 0 kept) :: !blocks;
    lo := lo' + len
  done;
  let details = Array.concat (List.rev !blocks) in
  let cached = ref 0 in
  Array.iteri (fun i _ -> if cacheable failures.(i) then incr cached) details;
  Dtr_obs.Metric.Counter.incr c_sweeps;
  Dtr_obs.Metric.Counter.add c_cached_evals !cached;
  Dtr_obs.Metric.Counter.add c_full_evals (Array.length details - !cached);
  Dtr_obs.Metric.Accum.add c_seconds (Unix.gettimeofday () -. t0);
  if Dtr_obs.Trace.enabled () then
    Dtr_obs.Trace.emit_sweep_end ~scenario:trace_id ~failures:num;
  (details, !stopped)

(* Failure sweeps compute the no-failure routing once and re-route only the
   destinations whose ECMP DAG lost an arc (see Routing.with_failed_arcs). *)
let sweep_details (scenario : Scenario.t) ?exec w failures =
  let g = scenario.Scenario.graph in
  let buffers = Routing.make_buffers g in
  let base_d = Routing.compute g ~weights:(Weights.delay_of w) ~buffers () in
  let base_t = Routing.compute g ~weights:(Weights.throughput_of w) ~buffers () in
  Array.to_list
    (fst
       (sweep_array scenario ~exec:(resolve_exec exec) ~base_d ~base_t w
          (Array.of_list failures)))

let sweep scenario ?exec w failures =
  Array.of_list (List.map (fun d -> d.cost) (sweep_details scenario ?exec w failures))

(* Compound failure cost from already-computed no-failure bases (the
   scenario's own matrices).  The per-failure sum folds from [Lexico.zero]
   in scenario order and [init] is added {e outside} the fold: float
   addition is not associative, so folding from [init] directly would
   change the bits.  On abort the partial itself is returned — a certified
   componentwise lower bound on the full compound, which the delta cache
   stores so a repeat probe of the same vector is rejected without
   re-pricing. *)
let compound_sweep_bounded (scenario : Scenario.t) ?exec ~routing_d ~routing_t ?init
    ?prune w ~failures =
  let with_init acc = match init with Some i -> Lexico.add i acc | None -> acc in
  let details, stopped =
    sweep_array scenario ~exec:(resolve_exec exec) ~base_d:routing_d ~base_t:routing_t
      ?stop:(Option.map (fun prune acc -> prune (with_init acc)) prune)
      w (Array.of_list failures)
  in
  let total =
    with_init (Array.fold_left (fun acc d -> Lexico.add acc d.cost) Lexico.zero details)
  in
  if stopped then Aborted_at total else Swept total

(* What-if pricing from resident bases: the daemon holds its incumbent's
   no-failure routing states alive across events, so a query needs no SPF at
   all in the no-failure case and only the affected-destination re-route
   under a failure.  Scratch comes from the per-domain sweep cache, so
   repeated queries allocate no buffers. *)
let evaluate_from (scenario : Scenario.t) ~routing_d ~routing_t ?failure w =
  let dense_rd = scenario.Scenario.dense_rd
  and dense_rt = scenario.Scenario.dense_rt
  and sinks = scenario.Scenario.delay_sinks in
  match failure with
  | None ->
      assess scenario ~routing_d ~routing_t ~exclude_node:None ~dense_rd ~dense_rt
        ~sinks ~want_pair_delays:false
  | Some f ->
      let scratch = sweep_scratch_for scenario.Scenario.graph in
      assess_failure scenario ~buffers:scratch.buffers ~mask:scratch.mask
        ~base_d:routing_d ~base_t:routing_t ~dense_rd ~dense_rt ~sinks w f

let compound costs = Array.fold_left Lexico.add Lexico.zero costs

module Internal = struct
  let dest_sla = dest_sla
end
