(* Like the program, the kernel allocates, chases pointers through a
   balanced-tree queue and a hash table, and branches on data, so the
   host's other tenants slow it down in the same phases.  Tight integer or
   array loops do not: they slowed by under 30% while the program slowed
   by 1.8×. *)

module Queue = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let nodes = 80
let out_degree = 5

(* Node [u]'s arcs as (arc id, head, weight), drawn from a fixed linear
   congruential sequence. *)
let adjacency =
  let state = ref 12345 in
  let next k =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod k
  in
  Array.init nodes (fun u ->
      List.init out_degree (fun j ->
          ((u * out_degree) + j, (u + 1 + next (nodes - 1)) mod nodes, float_of_int (1 + next 20))))

let kernel () =
  let loads = Array.make (nodes * out_degree) 0. in
  let distances = Hashtbl.create 8192 in
  for src = 0 to nodes - 1 do
    let dist = Array.make nodes infinity and pred = Array.make nodes (-1, -1) in
    dist.(src) <- 0.;
    let queue = ref (Queue.singleton (0., src)) in
    while not (Queue.is_empty !queue) do
      let ((d, u) as e) = Queue.min_elt !queue in
      queue := Queue.remove e !queue;
      if d <= dist.(u) then
        List.iter
          (fun (arc, v, w) ->
            let nd = d +. w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              pred.(v) <- (arc, u);
              queue := Queue.add (nd, v) !queue
            end)
          adjacency.(u)
    done;
    for v = 0 to nodes - 1 do
      Hashtbl.replace distances (src, v) dist.(v);
      let rec back x =
        let arc, u = pred.(x) in
        if x <> src && arc >= 0 then begin
          loads.(arc) <- loads.(arc) +. 1.;
          back u
        end
      in
      back v
    done
  done;
  Array.fold_left ( +. ) 0. loads +. float_of_int (Hashtbl.length distances)

let reps = 24
let nominal_s = 0.1

let time () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (kernel ()))
  done;
  Unix.gettimeofday () -. t0
