(* Unit tests for the benchmark's own machinery: the open-loop timing rule,
   the tail-percentile choice, the metric-name charset, error counting and
   the reference computation. *)

open Perfbench

let close = Alcotest.float 1e-9

(* A fake clock: time only moves when the generator sleeps or a request is
   served, by exactly the amounts the test says. *)
let fake_clock () =
  let t = ref 0. in
  ({ Open_loop.now = (fun () -> !t); sleep_until = (fun d -> if d > !t then t := d) }, t)

let test_open_loop_idle () =
  let clock, t = fake_clock () in
  let samples = Open_loop.run clock ~due:[| 1.; 2. |] ~serve:(fun _ -> t := !t +. 0.25) in
  Array.iteri
    (fun i s ->
      Alcotest.check close (Printf.sprintf "latency %d" i) 0.25 s.Open_loop.latency;
      Alcotest.check close "no wait" 0. s.Open_loop.wait;
      Alcotest.(check bool) "found the system idle" true (s.Open_loop.overshoot <> None))
    samples

let test_open_loop_queueing () =
  (* Request 0 stalls for 3 s; requests 1 and 2, due at 1 and 2, start when
     it finishes and are charged the wait from their due times. *)
  let clock, t = fake_clock () in
  let service = [| 3.; 0.5; 0.5 |] in
  let samples = Open_loop.run clock ~due:[| 0.; 1.; 2. |] ~serve:(fun i -> t := !t +. service.(i)) in
  let lat = Array.map (fun s -> s.Open_loop.latency) samples in
  Alcotest.(check (array close)) "latency from due" [| 3.; 2.5; 2. |] lat;
  Alcotest.check close "request 1 waits" 2. samples.(1).Open_loop.wait;
  Alcotest.check close "request 2 waits" 1.5 samples.(2).Open_loop.wait;
  Alcotest.check close "service excludes the wait" 0.5 samples.(2).Open_loop.service;
  Alcotest.(check bool) "queued requests report no overshoot" true
    (samples.(1).Open_loop.overshoot = None && samples.(2).Open_loop.overshoot = None)

let test_open_loop_order () =
  let clock, _ = fake_clock () in
  Alcotest.check_raises "decreasing due times" (Invalid_argument "Open_loop.run: due times decrease")
    (fun () -> ignore (Open_loop.run clock ~due:[| 2.; 1. |] ~serve:ignore))

let test_tail_percentile () =
  let check n p = Alcotest.(check (float 0.)) (Printf.sprintf "n=%d" n) p (Stats.tail_percentile ~n) in
  (* at least ten samples must lie beyond the chosen percentile *)
  check 1 50.;
  check 19 50.;
  check 20 50.;
  check 99 50.;
  check 100 90.;
  check 999 90.;
  check 1000 99.;
  check 9999 99.;
  check 10000 99.9;
  let samples = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let p, v = Stats.tail samples in
  Alcotest.(check (float 0.)) "p99 of 1..1000" 99. p;
  Alcotest.(check (float 0.)) "nearest rank" 990. v;
  Alcotest.(check (float 0.)) "median of 1..1000" 500. (Stats.median samples)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Result.valid_name n))
    [ "setup_s"; "daemon.eval.service_p99_ms"; "9lives"; "a-b.c_d"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Result.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "p99 ms"; "a/b"; "é"; String.make 65 'x' ];
  List.iter (fun u -> Alcotest.(check bool) u true (Result.valid_unit u)) [ "ms"; "s"; "1/s"; "%"; "count" ];
  List.iter
    (fun u -> Alcotest.(check bool) (Printf.sprintf "%S rejected" u) false (Result.valid_unit u))
    [ ""; "m s"; String.make 17 'u' ];
  Alcotest.check_raises "metric refuses a bad name" (Invalid_argument "Result.metric: bad name a b")
    (fun () -> ignore (Result.metric "a b" 1. "s"))

let test_error_counting () =
  let t = Result.tally () in
  Alcotest.(check (float 0.)) "no attempts" 0. (Result.error_rate t);
  Result.check t "ok" true;
  Result.check t "mismatch" false;
  Result.check t "ok" true;
  Result.check t "mismatch" false;
  Alcotest.(check int) "attempted" 4 (Result.attempted t);
  Alcotest.(check int) "failed" 2 (Result.failed t);
  Alcotest.(check (float 0.)) "error rate" 0.5 (Result.error_rate t);
  let line = Result.to_json t [ Result.metric "x_ms" 1.5 "ms" ] in
  Alcotest.(check string) "a mismatch makes the run incorrect"
    {|{"correct": false, "attempted": 4, "failed": 2, "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}|}
    line

let test_result_line () =
  let t = Result.tally () in
  Result.check t "ok" true;
  let line = Result.to_json t [ Result.metric "a" 0.1 "s"; Result.metric "b" 3. "count" ] in
  Alcotest.(check string) "all digits, correct"
    {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 0.1, "unit": "s"}, "b": {"value": 3, "unit": "count"}}}|}
    line;
  let nan_line = Result.to_json t [ Result.metric "a" Float.nan "s" ] in
  Alcotest.(check bool) "a non-finite value is incorrect" true
    (String.starts_with ~prefix:{|{"correct": false|} nan_line);
  Alcotest.check_raises "repeated name" (Invalid_argument "Result.to_json: repeated metric name")
    (fun () -> ignore (Result.to_json t [ Result.metric "a" 1. "s"; Result.metric "a" 2. "s" ]))

let test_stream () =
  let gen seed = Serve_stream.generate ~seed ~rate:100. ~count:2000 ~arcs:40 ~nodes:10 in
  let a = gen 7 and b = gen 7 and c = gen 8 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "another seed, another stream" true (a <> c);
  (* every link_up names the arc the previous link_down took down, and node
     what-ifs only run with no link down *)
  let down = ref None in
  Array.iter
    (fun r ->
      match (r, !down) with
      | Serve_stream.Link_down x, None -> down := Some x
      | Serve_stream.Link_up x, Some y when x = y -> down := None
      | (Serve_stream.Link_down _ | Serve_stream.Link_up _), _ -> Alcotest.fail "unpaired link event"
      | Serve_stream.Eval (Serve_stream.Node _), Some _ -> Alcotest.fail "node what-if with a link down"
      | _ -> ())
    a.Serve_stream.requests;
  let share = Serve_stream.repeat_share a ~n:2000 in
  Alcotest.(check bool) "some what-ifs repeat" true (share > 0.05 && share < 0.95)

(* Scaled times from two commits are only comparable while the reference
   computation stays the same. *)
let test_reference () =
  Alcotest.(check (float 0.)) "checksum" 30123. (Reference.kernel ());
  Alcotest.(check (float 0.)) "the same on every run" 30123. (Reference.kernel ())

let () =
  Alcotest.run "perfbench"
    [
      ( "open_loop",
        [
          Alcotest.test_case "idle system" `Quick test_open_loop_idle;
          Alcotest.test_case "queueing after a stall" `Quick test_open_loop_queueing;
          Alcotest.test_case "due order" `Quick test_open_loop_order;
        ] );
      ("stats", [ Alcotest.test_case "tail percentile" `Quick test_tail_percentile ]);
      ( "result",
        [
          Alcotest.test_case "name charset" `Quick test_names;
          Alcotest.test_case "error counting" `Quick test_error_counting;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("serve_stream", [ Alcotest.test_case "seeded stream" `Quick test_stream ]);
      ("reference", [ Alcotest.test_case "fixed computation" `Quick test_reference ]);
    ]
