type clock = { now : unit -> float; sleep_until : float -> unit }

(* Sleeping overshoots by tens of microseconds, which would be charged to
   every request's latency; sleep to within [spin] of the deadline and spin
   the remainder. *)
let spin = 2e-4

let wall_clock =
  let now = Unix.gettimeofday in
  let sleep_until deadline =
    let gap = deadline -. now () in
    if gap > spin then Unix.sleepf (gap -. spin);
    while now () < deadline do
      ()
    done
  in
  { now; sleep_until }

type sample = {
  latency : float;
  service : float;
  wait : float;
  overshoot : float option;
}

let run clock ~due ~serve =
  let n = Array.length due in
  for i = 1 to n - 1 do
    if due.(i) < due.(i - 1) then invalid_arg "Open_loop.run: due times decrease"
  done;
  Array.init n (fun i ->
      let idle = clock.now () < due.(i) in
      if idle then clock.sleep_until due.(i);
      let start = clock.now () in
      serve i;
      let finish = clock.now () in
      {
        latency = finish -. due.(i);
        service = finish -. start;
        wait = start -. due.(i);
        overshoot = (if idle then Some (start -. due.(i)) else None);
      })
