module Rng = Dtr_util.Rng

type spec = No_failure | Arc of int | Edge of int | Node of int

type request =
  | Eval of spec
  | Tm_update of float
  | Link_down of int
  | Link_up of int

type t = { due : float array; requests : request array; state : int array }

(* Mix, in percent of requests: what-ifs 88, traffic drift 6, link events
   6.  Within what-ifs: no failure 10, arc 45, edge 30, node 15; a target
   comes from the hot set with probability [hot_p].  The hot set is the same
   for every seed, so seeds differ in the order and timing of requests but
   not in how costly a typical what-if is. *)
let hot_size = 4
let hot_p = 0.7
let drift_eps = 0.05

let generate ~seed ~rate ~count ~arcs ~nodes =
  if rate <= 0. || count < 0 || arcs < 1 || nodes < 1 then
    invalid_arg "Serve_stream.generate";
  let hot = Rng.create 0 in
  let hot_arcs = Array.init hot_size (fun _ -> Rng.int hot arcs) in
  let hot_nodes = Array.init hot_size (fun _ -> Rng.int hot nodes) in
  let rng = Rng.create seed in
  let pick hot n = if Rng.float rng 1. < hot_p then Rng.pick rng hot else Rng.int rng n in
  let down = ref None and state = ref 0 and clock = ref 0. in
  let due = Array.make count 0. and states = Array.make count 0 in
  let requests =
    Array.init count (fun i ->
        clock := !clock +. Rng.exponential rng ~rate;
        due.(i) <- !clock;
        let r = Rng.int rng 100 in
        let req =
          if r < 88 then
            let s = Rng.int rng 100 in
            Eval
              (if s < 10 then No_failure
               else if s < 55 then Arc (pick hot_arcs arcs)
               else if s < 85 || !down <> None then Edge (pick hot_arcs arcs)
               else Node (pick hot_nodes nodes))
          else if r < 94 then Tm_update drift_eps
          else
            match !down with
            | None ->
                let a = Rng.int rng arcs in
                down := Some a;
                Link_down a
            | Some a ->
                down := None;
                Link_up a
        in
        (match req with Eval _ -> () | _ -> incr state);
        states.(i) <- !state;
        req)
  in
  { due; requests; state = states }

let repeat_share t ~n =
  let seen = Hashtbl.create 1024 and evals = ref 0 and repeats = ref 0 in
  for i = 0 to n - 1 do
    match t.requests.(i) with
    | Eval spec ->
        incr evals;
        let key = (t.state.(i), spec) in
        if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ()
    | _ -> ()
  done;
  if !evals = 0 then 0. else float_of_int !repeats /. float_of_int !evals

let line ~id = function
  | Eval No_failure -> Printf.sprintf {|{"id": %d, "event": "eval"}|} id
  | Eval (Arc a) ->
      Printf.sprintf {|{"id": %d, "event": "eval", "failure": {"arc": %d}}|} id a
  | Eval (Edge a) ->
      Printf.sprintf {|{"id": %d, "event": "eval", "failure": {"edge": %d}}|} id a
  | Eval (Node v) ->
      Printf.sprintf {|{"id": %d, "event": "eval", "failure": {"node": %d}}|} id v
  | Tm_update eps ->
      Printf.sprintf {|{"id": %d, "event": "tm_update", "model": "gaussian", "eps": %g}|}
        id eps
  | Link_down a -> Printf.sprintf {|{"id": %d, "event": "link_down", "arc": %d}|} id a
  | Link_up a -> Printf.sprintf {|{"id": %d, "event": "link_up", "arc": %d}|} id a

let kind = function
  | Eval _ -> "eval"
  | Tm_update _ -> "tm_update"
  | Link_down _ | Link_up _ -> "link"
