(* perfbench: the repository benchmark.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   NAME is optimize_cold, sweep_large, serve_mixed, or all.  With --trace 0
   the last line of standard output is one JSON object holding the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics.  Lines
   before it are a human-readable header: the process-global switches in
   effect and the workload's named figures.  See perfbench/README.md. *)

module Result = Perfbench.Result
module Stats = Perfbench.Stats

(* Process-global switches that silently change what is measured. *)
let pinned_env = [ "DTR_JOBS"; "DTR_CHUNK_SIZE"; "DTR_NO_DSPF"; "DTR_NO_PRUNE" ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* The commit of the checkout, read from .git without running git (which
   would search parent directories); "unknown" outside a repository. *)
let commit () =
  let read path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some sha -> sha
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; r ] when r = ref_ -> Some sha
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some sha -> sha
  | None -> "unknown"

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
               Some (float_of_int kb /. 1024.))
         else None)
  |> Option.value ~default:0.

let print_header ~workload ~seed =
  Printf.printf "# perfbench workload=%s seed=%d commit=%s\n" workload seed (commit ());
  Printf.printf "# spf_delta.enabled=%b prune.enabled=%b nproc=%d\n"
    (Dtr_spf.Spf_delta.enabled ()) (Dtr_core.Prune.enabled ())
    (Domain.recommended_domain_count ())

(* Times scaled to the reference machine: [setup_s] and [work_s] are
   medians over the run's set-ups and work windows, [p50_ms] the median of
   all its requests, and [tail_ms] the median over its request windows of
   each window's tail.  The raw window times and the reference times are
   printed beside them.  See README.md. *)
let end_to_end (o : Workloads.outcome) tally ~reference =
  let requests = Array.concat (Array.to_list o.latency) in
  let tails = Array.map Stats.tail o.latency in
  let show name a =
    Printf.printf "# %s: %s\n" name
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") a)))
  in
  Printf.printf "# jobs=%d work windows=%d requests=%d in %d windows, tail=p%g setups=%d error_rate=%g\n"
    o.jobs (Array.length o.work) (Array.length requests) (Array.length o.latency) (fst tails.(0))
    (Array.length o.setup) (Result.error_rate tally);
  show "reference_s per measurement" reference;
  show "raw work_s per window" o.raw_work;
  show "work_s per window" o.work;
  show "tail_ms per request window" (Array.map (fun (_, t) -> 1e3 *. t) tails);
  let m = Result.metric in
  [
    m "setup_s" (Stats.median o.setup) "s";
    m "work_s" (Stats.median o.work) "s";
    m "p50_ms" (1e3 *. Stats.median requests) "ms";
    m "tail_ms" (1e3 *. Stats.median (Array.map snd tails)) "ms";
    m "peak_rss_mb" (peak_rss_mb ()) "MB";
  ]

let run_one ~name ~seed ~seconds ~trace =
  let run = List.assoc name Workloads.all in
  let tally = Result.tally () in
  print_header ~workload:name ~seed;
  let ctx = { Workloads.seed; seconds; trace; tally; reference = [] } in
  let o = run ctx in
  List.iter (fun (k, v, u) -> Printf.printf "# %s = %.17g %s\n" k v u) o.info;
  let metrics =
    if trace then o.layers
    else end_to_end o tally ~reference:(Array.of_list (List.rev ctx.Workloads.reference))
  in
  (tally, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let reference () =
    Printf.printf "%.17g\n" (Perfbench.Reference.time ());
    exit 0
  in
  Arg.parse
    [
      ("--reference", Arg.Unit reference, " time the reference computation once and exit");
      ("--workload", Arg.Set_string workload, "NAME optimize_cold | sweep_large | serve_mixed | all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        fail "%s is set; it changes what is measured — unset it and rerun" v)
    pinned_env;
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !seconds <= 0. then fail "--seconds must be positive";
  let names =
    if !workload = "all" then List.map fst Workloads.all
    else if List.mem_assoc !workload Workloads.all then [ !workload ]
    else fail "unknown workload %S" !workload
  in
  let trace = !trace = 1 in
  let results =
    List.map (fun name -> (name, run_one ~name ~seed:!seed ~seconds:!seconds ~trace)) names
  in
  let line =
    match results with
    | [ (_, (tally, metrics)) ] -> Result.to_json tally metrics
    | _ ->
        (* "all": one object, metric names prefixed by their workload *)
        let tally = Result.merge (List.map (fun (_, (t, _)) -> t) results) in
        let metrics =
          List.concat_map
            (fun (name, (_, ms)) ->
              List.map
                (fun (m : Result.metric) -> Result.metric (name ^ "." ^ m.name) m.value m.unit_)
                ms)
            results
        in
        Result.to_json tally metrics
  in
  print_endline line
