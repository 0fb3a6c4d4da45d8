(** Dynamic-SPF repair for arc deletions (Ramalingam–Reps style).

    Failure sweeps delete a handful of arcs from an otherwise unchanged
    topology.  For each destination whose ECMP DAG actually uses a deleted
    arc, only a {e cone} of upstream nodes can change distance: a node is
    affected exactly when every one of its old shortest-path next hops is
    either deleted or leads to another affected node.  This module identifies
    that cone from the cached distance array and next-hop rows, and repairs
    the affected distances with a bounded re-relaxation
    ({!Dijkstra.repair_arc_removal}) seeded from the cone's frontier — the
    rest of the destination's state is reused verbatim.

    The repaired distances are bit-identical to a from-scratch Dijkstra
    (shortest distances are canonical), and the caller rebuilds hop rows and
    the traversal order with the very same code the from-scratch path uses,
    so the whole derived routing state matches the reference computation
    bit-for-bit. *)

module Graph = Dtr_topology.Graph

val enabled : unit -> bool
(** Always [true]: the repair engine is the only production path for
    failure routing ({!Routing.with_failed_arcs} still recomputes wide
    batches from scratch on its own size test).  Kept so run headers can
    keep recording the engine state. *)

type scratch
(** Reusable working set for the cone search (state flags + reset lists).
    Not thread-safe; use one per domain. *)

val make_scratch : Graph.t -> scratch

type outcome = {
  dist : int array;
      (** Post-failure distances for the destination.  Physically the base
          array when no distance changed, a fresh repaired copy otherwise;
          never a mutation of the base. *)
  rebuild : Graph.node list;
      (** Nodes whose next-hop rows must be rebuilt (the settled cone-search
          nodes: affected nodes plus unaffected nodes that lost hop arcs).
          Every other node's hop row is unchanged. *)
  changed_dist : bool;
      (** Whether any distance changed (iff the affected cone is non-empty).
          When [false] the traversal order is also unchanged. *)
}

val repair :
  Graph.t ->
  weights:int array ->
  mask:bool array ->
  failed:Graph.arc_id list ->
  dist:int array ->
  hop_off:int array ->
  hop_ids:Graph.arc_id array ->
  heap:Dtr_util.Int_heap.t ->
  scratch:scratch ->
  outcome
(** [repair g ~weights ~mask ~failed ~dist ~hop_off ~hop_ids ~heap ~scratch]
    repairs one destination's distance array after the arcs in [failed] go
    down.  [dist] and the CSR hop rows ([hop_off]/[hop_ids], node [u]'s
    shortest-path out-arcs at [hop_ids.(hop_off.(u)) ..
    hop_ids.(hop_off.(u+1) - 1)]) are the destination's {e base} (no-failure)
    state for the same weights and must have been computed with every arc
    enabled; they are not mutated.  [mask] is the disabled-arc mask
    corresponding to [failed].  [heap] is free for reuse by the caller
    afterwards. *)
