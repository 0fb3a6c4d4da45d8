module Graph = Dtr_topology.Graph
module Int_heap = Dtr_util.Int_heap

(* Per-destination routing state, flat-CSR throughout: node [u]'s ECMP
   next-hop arcs occupy [hop_ids.(hop_off.(u)) .. hop_ids.(hop_off.(u+1)-1)]
   (in increasing arc id, matching the graph's out-adjacency order).  Load
   distribution, the delay DPs and the DAG scans all walk these contiguous
   int arrays; per-node boxed rows are gone from the hot path. *)
type dest_state = {
  dist : int array; (* dist.(node) *)
  hop_off : int array; (* length n + 1 *)
  hop_ids : Graph.arc_id array;
  order : Graph.node array;
      (* reachable nodes, sorted by decreasing distance; excludes the
         destination itself *)
}

type t = {
  graph : Graph.t;
  dests : dest_state array; (* indexed by destination *)
}

(* Reusable Dijkstra working set: heap, node-order scratch, per-node rebuild
   flags for the dynamic repair, and the cone-search scratch.  Failure sweeps
   and the incremental evaluation engine run thousands of per-destination
   recomputations; sharing one buffer set across them keeps the hot path
   allocation-free. *)
type buffers = {
  heap : Int_heap.t;
  scratch : int array;
  rebuilt : bool array; (* repair_dest: membership flags for the rebuild set *)
  delta : Spf_delta.scratch;
}

let make_buffers g =
  let n = Graph.num_nodes g in
  {
    heap = Int_heap.create ~capacity:n ();
    scratch = Array.make n 0;
    rebuilt = Array.make n false;
    delta = Spf_delta.make_scratch g;
  }

(* One node's ECMP next-hop row: the enabled out-arcs lying on a shortest
   path.  Both the from-scratch and the dynamic-repair paths build rows with
   these exact criteria, so repaired rows are bit-identical by
   construction. *)
let count_hops g ~weights ~disabled ~d u =
  let off = Graph.out_offsets g and ids = Graph.out_csr g in
  let arc_dst = Graph.arc_dests g in
  let count = ref 0 in
  for i = off.(u) to off.(u + 1) - 1 do
    let id = ids.(i) in
    let ok = match disabled with None -> true | Some m -> not m.(id) in
    if ok && weights.(id) + d.(arc_dst.(id)) = d.(u) then incr count
  done;
  !count

let fill_hops g ~weights ~disabled ~d u ~into ~at =
  let off = Graph.out_offsets g and ids = Graph.out_csr g in
  let arc_dst = Graph.arc_dests g in
  let k = ref at in
  for i = off.(u) to off.(u + 1) - 1 do
    let id = ids.(i) in
    let ok = match disabled with None -> true | Some m -> not m.(id) in
    if ok && weights.(id) + d.(arc_dst.(id)) = d.(u) then begin
      into.(!k) <- id;
      incr k
    end
  done

(* Reachable non-destination nodes by decreasing distance.  [Array.sort] is
   deterministic, so identical distances always yield an identical
   permutation — including tie order — whichever path built [d]. *)
let order_row ~scratch ~d ~dest =
  let n = Array.length d in
  let reachable = ref 0 in
  for u = 0 to n - 1 do
    if u <> dest && d.(u) < Dijkstra.infinity then begin
      scratch.(!reachable) <- u;
      incr reachable
    end
  done;
  let ord = Array.sub scratch 0 !reachable in
  Array.sort (fun a b -> Int.compare d.(b) d.(a)) ord;
  ord

(* Per-destination routing state: distances, the CSR ECMP hop rows, and the
   nodes in decreasing-distance order (upstream nodes first, so load
   distribution processes a node only after all its inflow is known). *)
let compute_dest g ~weights ~disabled ~heap ~scratch dest =
  let n = Graph.num_nodes g in
  let d = Array.make n Dijkstra.infinity in
  Dijkstra.fill_to_destination g ~weights ~disabled ~dest ~dist:d ~heap;
  let hop_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let len =
      if u <> dest && d.(u) < Dijkstra.infinity then
        count_hops g ~weights ~disabled ~d u
      else 0
    in
    hop_off.(u + 1) <- hop_off.(u) + len
  done;
  let hop_ids = Array.make hop_off.(n) 0 in
  for u = 0 to n - 1 do
    if hop_off.(u + 1) > hop_off.(u) then
      fill_hops g ~weights ~disabled ~d u ~into:hop_ids ~at:hop_off.(u)
  done;
  let order = order_row ~scratch ~d ~dest in
  { dist = d; hop_off; hop_ids; order }

let compute g ~weights ?buffers ?disabled () =
  let n = Graph.num_nodes g in
  let { heap; scratch; _ } =
    match buffers with Some b -> b | None -> make_buffers g
  in
  let dests =
    Array.init n (fun dest -> compute_dest g ~weights ~disabled ~heap ~scratch dest)
  in
  { graph = g; dests }

let exists_dag_arc t ~dest f =
  let st = t.dests.(dest) in
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  let rec scan i =
    if i >= Array.length ord then false
    else
      let u = ord.(i) in
      let rec scan_nh j = j < off.(u + 1) && (f ids.(j) || scan_nh (j + 1)) in
      scan_nh off.(u) || scan (i + 1)
  in
  scan 0

let iter_dag_arcs t ~dest f =
  let st = t.dests.(dest) in
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  for i = 0 to Array.length ord - 1 do
    let u = ord.(i) in
    for j = off.(u) to off.(u + 1) - 1 do
      f ids.(j)
    done
  done

let uses_arc t ~dest id =
  let s = (Graph.arc_sources t.graph).(id) in
  let st = t.dests.(dest) in
  st.dist.(s) < Dijkstra.infinity
  &&
  let ids = st.hop_ids in
  let rec scan j = j < st.hop_off.(s + 1) && (ids.(j) = id || scan (j + 1)) in
  scan st.hop_off.(s)

let shares_dest a b ~dest = a.dests.(dest) == b.dests.(dest)

(* Dynamic-SPF derivation of one destination's post-failure state: repair the
   affected distance cone, then rebuild exactly the settled nodes' hop rows
   (and the traversal order, only when a distance changed) with the same code
   the from-scratch path uses.  Unchanged rows are blitted verbatim from the
   base CSR.  Bit-identical to [compute_dest] with the failure mask, several
   times cheaper when the cone is small. *)
let repair_dest g ~weights ~disabled ~failed ~buffers base dest =
  let bst = base.dests.(dest) in
  let outcome =
    Spf_delta.repair g ~weights ~mask:disabled ~failed ~dist:bst.dist
      ~hop_off:bst.hop_off ~hop_ids:bst.hop_ids ~heap:buffers.heap
      ~scratch:buffers.delta
  in
  let d = outcome.Spf_delta.dist in
  let n = Graph.num_nodes g in
  let rebuild = outcome.Spf_delta.rebuild in
  let flag = buffers.rebuilt in
  List.iter (fun u -> flag.(u) <- true) rebuild;
  let some_disabled = Some disabled in
  let hop_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let len =
      if flag.(u) then
        if u <> dest && d.(u) < Dijkstra.infinity then
          count_hops g ~weights ~disabled:some_disabled ~d u
        else 0
      else bst.hop_off.(u + 1) - bst.hop_off.(u)
    in
    hop_off.(u + 1) <- hop_off.(u) + len
  done;
  let hop_ids = Array.make hop_off.(n) 0 in
  for u = 0 to n - 1 do
    let len = hop_off.(u + 1) - hop_off.(u) in
    if flag.(u) then begin
      if len > 0 then
        fill_hops g ~weights ~disabled:some_disabled ~d u ~into:hop_ids
          ~at:hop_off.(u)
    end
    else if len > 0 then
      Array.blit bst.hop_ids bst.hop_off.(u) hop_ids hop_off.(u) len
  done;
  List.iter (fun u -> flag.(u) <- false) rebuild;
  let order =
    if outcome.Spf_delta.changed_dist then
      order_row ~scratch:buffers.scratch ~d ~dest
    else bst.order
  in
  { dist = d; hop_off; hop_ids; order }

let with_failed_arcs ?buffers ?changed base ~weights ~disabled ~failed =
  let g = base.graph in
  let n = Graph.num_nodes g in
  let b = match buffers with Some b -> b | None -> make_buffers g in
  (* Repairing a deleted-arc batch only beats recomputing while the batch is
     a small slice of the graph: once the failure covers roughly an eighth of
     the arcs (a wide SRLG cut or a cascading event) the repair cone reaches
     most destinations and the per-destination bookkeeping costs more than a
     plain Dijkstra.  Both paths are bit-identical, so this is purely a
     performance gate. *)
  let use_repair = 8 * List.length failed < Graph.num_arcs g in
  (* Callers that already know which destinations route over a failed arc
     (the sweep cache keeps per-arc destination lists) pass the sorted list
     in; otherwise scan.  The list must equal the [uses_arc] criterion. *)
  let remaining = ref (match changed with Some l -> l | None -> []) in
  let is_changed dest =
    match changed with
    | None -> List.exists (fun id -> uses_arc base ~dest id) failed
    | Some _ -> (
        match !remaining with
        | d :: tl when d = dest ->
            remaining := tl;
            true
        | _ -> false)
  in
  let dests = Array.make n base.dests.(0) in
  for dest = 0 to n - 1 do
    (* Arcs on no shortest path towards [dest] can be removed without
       changing any shortest path, so the base state is reused verbatim. *)
    dests.(dest) <-
      (if is_changed dest then
         if use_repair then
           repair_dest g ~weights ~disabled ~failed ~buffers:b base dest
         else
           compute_dest g ~weights ~disabled:(Some disabled) ~heap:b.heap
             ~scratch:b.scratch dest
       else base.dests.(dest))
  done;
  { graph = g; dests }

let with_changed_arc ?buffers base ~weights ~arc ~old_weight =
  let g = base.graph in
  let new_w = weights.(arc) in
  if new_w = old_weight then (base, [])
  else begin
    let n = Graph.num_nodes g in
    let a_src = (Graph.arc_sources g).(arc) and a_dst = (Graph.arc_dests g).(arc) in
    (* A destination is affected only if the changed arc can alter its
       shortest paths: for an increase, the arc must currently lie on one
       (otherwise its slack only grows); for a decrease, the relaxed arc must
       match or beat the current distance through [a_src] ([<=] also catches
       arcs that merely join the ECMP DAG without changing any distance).
       The comparison is safe at [Dijkstra.infinity] because infinity is
       [max_int / 4]: adding a weight never overflows, and an unreachable
       [a_dst] keeps the sum above any finite (or infinite) [a_src]. *)
    let affected dest =
      if new_w > old_weight then uses_arc base ~dest arc
      else
        let d = base.dests.(dest).dist in
        new_w + d.(a_dst) <= d.(a_src)
    in
    let { heap; scratch; _ } =
      match buffers with Some b -> b | None -> make_buffers g
    in
    let dests = Array.make n base.dests.(0) in
    let changed = ref [] in
    for dest = n - 1 downto 0 do
      if affected dest then begin
        dests.(dest) <- compute_dest g ~weights ~disabled:None ~heap ~scratch dest;
        changed := dest :: !changed
      end
      else dests.(dest) <- base.dests.(dest)
    done;
    ({ graph = g; dests }, !changed)
  end

let distance t ~src ~dst = t.dests.(dst).dist.(src)
let reachable t ~src ~dst = src = dst || t.dests.(dst).dist.(src) < Dijkstra.infinity

let next_hops t ~dest ~node =
  let st = t.dests.(dest) in
  let lo = st.hop_off.(node) in
  Array.sub st.hop_ids lo (st.hop_off.(node + 1) - lo)

let num_next_hops t ~dest ~node =
  let st = t.dests.(dest) in
  st.hop_off.(node + 1) - st.hop_off.(node)

let iter_next_hops t ~dest ~node f =
  let st = t.dests.(dest) in
  let off = st.hop_off and ids = st.hop_ids in
  for j = off.(node) to off.(node + 1) - 1 do
    f ids.(j)
  done

let fold_next_hops t ~dest ~node ~init f =
  let st = t.dests.(dest) in
  let off = st.hop_off and ids = st.hop_ids in
  let acc = ref init in
  for j = off.(node) to off.(node + 1) - 1 do
    acc := f !acc ids.(j)
  done;
  !acc

(* Distribute one destination's inbound demand over its ECMP DAG, adding the
   per-arc shares into [into]; returns the unroutable volume.  Every arc
   receives at most one addition per destination (its source node is routed
   once), which the incremental engine relies on to re-sum totals from
   per-destination contributions bit-identically. *)
let route_dest t ~demands ~excluded ~node_flow ~into dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  let st = t.dests.(dest) in
  let unrouted = ref 0. in
  Array.fill node_flow 0 n 0.;
  let any = ref false in
  for s = 0 to n - 1 do
    let r = demands.(s).(dest) in
    if r > 0. && s <> dest && not (excluded s) then begin
      if st.dist.(s) < Dijkstra.infinity then begin
        node_flow.(s) <- node_flow.(s) +. r;
        any := true
      end
      else unrouted := !unrouted +. r
    end
  done;
  if !any then begin
    let off = st.hop_off and ids = st.hop_ids in
    let arc_dst = Graph.arc_dests g in
    let ord = st.order in
    for i = 0 to Array.length ord - 1 do
      let u = ord.(i) in
      let flow = node_flow.(u) in
      if flow > 0. then begin
        let lo = off.(u) and hi = off.(u + 1) in
        (* Reachable non-destination nodes always have >= 1 next hop. *)
        let share = flow /. float_of_int (hi - lo) in
        for j = lo to hi - 1 do
          let id = ids.(j) in
          into.(id) <- into.(id) +. share;
          let v = arc_dst.(id) in
          if v <> dest then node_flow.(v) <- node_flow.(v) +. share
        done
      end
    done
  end;
  !unrouted

let check_demands t ~demands ~into =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length demands <> n then invalid_arg "Routing.add_loads: demands rows";
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Routing.add_loads: demands cols")
    demands;
  if Array.length into <> Graph.num_arcs g then
    invalid_arg "Routing.add_loads: load array length"

let add_loads t ~demands ~exclude_node ~into () =
  check_demands t ~demands ~into;
  let n = Graph.num_nodes t.graph in
  let excluded v = match exclude_node with None -> false | Some x -> x = v in
  let node_flow = Array.make n 0. in
  let unrouted = ref 0. in
  for dest = 0 to n - 1 do
    if not (excluded dest) then
      unrouted := !unrouted +. route_dest t ~demands ~excluded ~node_flow ~into dest
  done;
  !unrouted

let add_loads t ~demands ?exclude_node ~into () =
  add_loads t ~demands ~exclude_node ~into ()

let add_loads_dest t ~demands ~dest ~into =
  check_demands t ~demands ~into;
  let n = Graph.num_nodes t.graph in
  if dest < 0 || dest >= n then invalid_arg "Routing.add_loads_dest: bad destination";
  let node_flow = Array.make n 0. in
  route_dest t ~demands ~excluded:(fun _ -> false) ~node_flow ~into dest

let loads t ~graph ~demands ?exclude_node () =
  let into = Array.make (Graph.num_arcs graph) 0. in
  let unrouted = add_loads t ~demands ?exclude_node ~into () in
  (into, unrouted)

let expected_delays_to t ~arc_delay ~dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length arc_delay <> Graph.num_arcs g then
    invalid_arg "Routing: arc_delay length mismatch";
  let st = t.dests.(dest) in
  let arc_dst = Graph.arc_dests g in
  let del = Array.make n Float.infinity in
  del.(dest) <- 0.;
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  (* Increasing distance: each node's next hops are already resolved. *)
  for i = Array.length ord - 1 downto 0 do
    let u = ord.(i) in
    let lo = off.(u) and hi = off.(u + 1) in
    let total = ref 0. in
    for j = lo to hi - 1 do
      let id = ids.(j) in
      total := !total +. arc_delay.(id) +. del.(arc_dst.(id))
    done;
    del.(u) <- !total /. float_of_int (hi - lo)
  done;
  del

let max_delays_to t ~arc_delay ~dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length arc_delay <> Graph.num_arcs g then
    invalid_arg "Routing: arc_delay length mismatch";
  let st = t.dests.(dest) in
  let arc_dst = Graph.arc_dests g in
  let del = Array.make n Float.infinity in
  del.(dest) <- 0.;
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  for i = Array.length ord - 1 downto 0 do
    let u = ord.(i) in
    let worst = ref Float.neg_infinity in
    for j = off.(u) to off.(u + 1) - 1 do
      let id = ids.(j) in
      worst := Float.max !worst (arc_delay.(id) +. del.(arc_dst.(id)))
    done;
    del.(u) <- !worst
  done;
  del

let bottleneck_to t ~arc_value ~dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length arc_value <> Graph.num_arcs g then
    invalid_arg "Routing.bottleneck_to: arc_value length mismatch";
  let st = t.dests.(dest) in
  let arc_dst = Graph.arc_dests g in
  let bn = Array.make n Float.infinity in
  bn.(dest) <- Float.neg_infinity;
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  for i = Array.length ord - 1 downto 0 do
    let u = ord.(i) in
    let acc = ref Float.neg_infinity in
    for j = off.(u) to off.(u + 1) - 1 do
      let id = ids.(j) in
      acc := Float.max !acc (Float.max arc_value.(id) bn.(arc_dst.(id)))
    done;
    bn.(u) <- !acc
  done;
  bn

let pair_expected_delay t ~arc_delay ~src ~dst =
  if src = dst then 0. else (expected_delays_to t ~arc_delay ~dest:dst).(src)
