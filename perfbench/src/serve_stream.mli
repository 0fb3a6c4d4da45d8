(** The seeded open-loop request stream of the [serve_mixed] workload.

    Poisson arrivals at a fixed rate; a mix of what-if [eval]s (no failure,
    one arc, one edge or one node, with targets skewed towards a small hot
    set so some repeat within one daemon state) beside the writes
    [tm_update] and [link_down]/[link_up] pairs.  At most one link is down at
    a time, and node what-ifs are only issued while none is — the daemon
    rejects a node what-if combined with failed links, and the benchmark's
    workloads contain no operation that fails. *)

type spec = No_failure | Arc of int | Edge of int | Node of int

type request =
  | Eval of spec
  | Tm_update of float  (** gaussian drift with this [eps] *)
  | Link_down of int
  | Link_up of int

type t = {
  due : float array;  (** seconds after the stream starts, non-decreasing *)
  requests : request array;
  state : int array;
      (** per request, an identifier of the daemon state it is answered in:
          equal identifiers mean no write changed the traffic or the failed
          set in between, so equal what-ifs must get equal answers *)
}

val generate : seed:int -> rate:float -> count:int -> arcs:int -> nodes:int -> t
(** [count] requests at [rate] per second on a graph with [arcs] arcs and
    [nodes] nodes.  The same arguments give the same stream. *)

val repeat_share : t -> n:int -> float
(** Share of the what-ifs among the first [n] requests that repeat an
    earlier what-if in the same state — the part an LRU with unbounded
    capacity could answer. *)

val line : id:int -> request -> string
(** The [dtr-serve/1] request line. *)

val kind : request -> string
(** ["eval"], ["tm_update"] or ["link"]. *)
