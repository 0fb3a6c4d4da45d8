(** Directed network graph.

    The paper models the network as a directed graph [G = (V, E)] where every
    arc [l] has a capacity [Cl] and a propagation delay [pl], and carries two
    configurable weights (one per traffic class).  Physical bidirectional
    links are represented as two arcs that know each other through
    {!val:rev}; failure scenarios and routing always operate at arc
    granularity, exactly as in the paper's formulation
    ([Kfail] sums over all arcs [l] in [E]).

    Nodes are dense integers [0 .. num_nodes - 1]; arcs are dense integers
    [0 .. num_arcs - 1], which lets every per-arc quantity in the library
    (weights, loads, delays, criticalities) live in a flat array. *)

type node = int
type arc_id = int

type arc = private {
  id : arc_id;
  src : node;
  dst : node;
  capacity : float;  (** Mb/s *)
  delay : float;  (** propagation delay, seconds *)
  rev : arc_id;  (** reverse arc of the same physical link, or -1 *)
}

type t

(** {1 Construction} *)

type edge_spec = {
  u : node;
  v : node;
  cap : float;  (** Mb/s, applied to both directions *)
  prop : float;  (** seconds, applied to both directions *)
}

val of_edges : ?coords:Geometry.point array -> n:int -> edge_spec list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes from undirected edge
    specs; each spec contributes the two arcs [(u,v)] and [(v,u)] linked via
    [rev].  Arc ids follow list order: spec [k] yields arcs [2k] (u→v) and
    [2k+1] (v→u).
    @raise Invalid_argument on out-of-range endpoints, self-loops, duplicate
    edges, or a capacity/delay that is not a positive finite number. *)

val check_edge : n:int -> edge_spec -> unit
(** The per-edge checks of {!of_edges} (all but duplicates), for loaders
    that report the offending line.
    @raise Invalid_argument with the same messages. *)

(** {1 Accessors} *)

val num_nodes : t -> int
val num_arcs : t -> int

val arc : t -> arc_id -> arc
(** @raise Invalid_argument if the id is out of range. *)

val arcs : t -> arc array
(** All arcs, indexed by id.  Do not mutate. *)

val iter_out : t -> node -> (arc_id -> unit) -> unit
(** Arc ids leaving a node, in increasing id (a walk over the CSR row). *)

val iter_in : t -> node -> (arc_id -> unit) -> unit
(** Arc ids entering a node, in increasing id. *)

(** {2 Flat-CSR views}

    The routing core iterates adjacency and per-arc attributes as contiguous
    arrays: node [v]'s out-arcs occupy the slice
    [out_csr.(out_offsets.(v)) .. out_csr.(out_offsets.(v+1) - 1)], in
    increasing arc id (the order {!iter_out} walks).  The per-arc arrays
    are the structure-of-arrays view of {!arcs}; float arrays are unboxed.
    All returned arrays are shared — do not mutate. *)

val out_offsets : t -> int array
(** CSR row offsets for out-adjacency; length [num_nodes + 1]. *)

val out_csr : t -> arc_id array
(** Packed out-arc ids; length [num_arcs]. *)

val in_offsets : t -> int array
(** CSR row offsets for in-adjacency; length [num_nodes + 1]. *)

val in_csr : t -> arc_id array
(** Packed in-arc ids; length [num_arcs]. *)

val arc_sources : t -> node array
(** [arc_sources g].(id) = [(arc g id).src]. *)

val arc_dests : t -> node array
(** [arc_dests g].(id) = [(arc g id).dst]. *)

val arc_capacities : t -> float array
(** [arc_capacities g].(id) = [(arc g id).capacity] (Mb/s, unboxed). *)

val arc_prop_delays : t -> float array
(** [arc_prop_delays g].(id) = [(arc g id).delay] (seconds, unboxed). *)

val arc_reverses : t -> arc_id array
(** [arc_reverses g].(id) = [(arc g id).rev]. *)

val find_arc : t -> node -> node -> arc_id option
(** First arc from [src] to [dst], if any. *)

val coords : t -> Geometry.point array option
(** Node positions when the graph was built from an embedding. *)

val edge_count : t -> int
(** Number of physical (undirected) links, i.e. pairs of mutually reverse
    arcs; arcs without a reverse count as one each. *)

val mean_out_degree : t -> float

(** {1 Connectivity} *)

val strongly_connected : ?disabled:bool array -> t -> bool
(** [strongly_connected ?disabled g] ignores arcs whose id is marked [true]
    in [disabled] (length [num_arcs]). *)

val reachable_from : ?disabled:bool array -> t -> node -> bool array
(** Forward reachability along enabled arcs. *)

(** {1 Pretty-printing} *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: node/arc counts, mean degree, delay range. *)
