(* Sharded metrics: every domain owns a preallocated shard (one int and one
   float cell per metric) registered in a process-global list on first touch;
   writers only ever touch their own shard, so there are no read-modify-write
   races to lose — the failure mode of the old global sweep-stats record,
   whose [Atomic.set (Atomic.get + dt)] pair silently dropped wall time
   whenever two sweeps overlapped.  Readers merge the shards under the
   registry mutex, folding in increasing domain-id order so the merge itself
   is deterministic for a given set of shards (integer sums are exact and
   order-independent; float sums are exact for lost-update purposes and
   order-pinned for reproducibility). *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let max_metrics = 256

type kind = Counter_k | Accum_k

(* Registry: metric names/kinds indexed by metric id.  Metrics are created at
   module-initialisation time (before any worker domain exists) or lazily
   from tests; creation and every merged read take [registry_mutex].  The
   hot-path write takes nothing: it indexes the caller's own shard. *)
let registry_mutex = Mutex.create ()
let names = Array.make max_metrics ""
let kinds = Array.make max_metrics Counter_k
let num_metrics = ref 0

type shard = { domain : int; ints : int array; floats : float array }

let shards : shard list ref = ref []

(* Shard arrays are over-allocated by one cache line (8 words) so that the
   low-indexed counters one domain hammers cannot land on the same line as
   the tail of another domain's shard allocated right next to it — the
   classic false-sharing pattern for per-worker counter blocks.  The padding
   indices are simply never used. *)
let line_pad = 8

let shard_slot : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          domain = (Domain.self () :> int);
          ints = Array.make (max_metrics + line_pad) 0;
          floats = Array.make (max_metrics + line_pad) 0.;
        }
      in
      Mutex.protect registry_mutex (fun () -> shards := s :: !shards);
      s)

(* Creation is idempotent per (name, kind): modules can register their
   metrics at init without coordinating, and tests can re-create by name. *)
let register kind name =
  Mutex.protect registry_mutex (fun () ->
      let rec find i =
        if i >= !num_metrics then None
        else if names.(i) = name && kinds.(i) = kind then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i -> i
      | None ->
          if !num_metrics >= max_metrics then
            invalid_arg "Dtr_obs.Metric: metric table full";
          let i = !num_metrics in
          names.(i) <- name;
          kinds.(i) <- kind;
          num_metrics := i + 1;
          i)

let sorted_shards () =
  Mutex.protect registry_mutex (fun () ->
      List.sort (fun a b -> compare a.domain b.domain) !shards)

module Counter = struct
  type t = int

  let create name = register Counter_k name
  let name t = names.(t)

  let add t k =
    let s = Domain.DLS.get shard_slot in
    s.ints.(t) <- s.ints.(t) + k

  let incr t = add t 1

  let value t =
    List.fold_left (fun acc s -> acc + s.ints.(t)) 0 (sorted_shards ())

  let per_domain t =
    List.filter_map
      (fun s -> if s.ints.(t) = 0 then None else Some (s.domain, s.ints.(t)))
      (sorted_shards ())

  let reset t =
    Mutex.protect registry_mutex (fun () ->
        List.iter (fun s -> s.ints.(t) <- 0) !shards)
end

module Accum = struct
  type t = int

  let create name = register Accum_k name
  let name t = names.(t)

  let add t x =
    let s = Domain.DLS.get shard_slot in
    s.floats.(t) <- s.floats.(t) +. x

  let value t =
    List.fold_left (fun acc s -> acc +. s.floats.(t)) 0. (sorted_shards ())

  let per_domain t =
    List.filter_map
      (fun s -> if s.floats.(t) = 0. then None else Some (s.domain, s.floats.(t)))
      (sorted_shards ())

  let reset t =
    Mutex.protect registry_mutex (fun () ->
        List.iter (fun s -> s.floats.(t) <- 0.) !shards)
end

let reset_all () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun s ->
          Array.fill s.ints 0 max_metrics 0;
          Array.fill s.floats 0 max_metrics 0.)
        !shards)

let fold_metrics f =
  let shards = sorted_shards () in
  let n = Mutex.protect registry_mutex (fun () -> !num_metrics) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match f i shards with None -> () | Some x -> out := x :: !out
  done;
  !out

let all_counters () =
  fold_metrics (fun i shards ->
      if kinds.(i) <> Counter_k then None
      else Some (names.(i), List.fold_left (fun a s -> a + s.ints.(i)) 0 shards))

let all_accums () =
  fold_metrics (fun i shards ->
      if kinds.(i) <> Accum_k then None
      else Some (names.(i), List.fold_left (fun a s -> a +. s.floats.(i)) 0. shards))

let per_domain () =
  let n = Mutex.protect registry_mutex (fun () -> !num_metrics) in
  List.filter_map
    (fun s ->
      let cs = ref [] and fs = ref [] in
      for i = n - 1 downto 0 do
        match kinds.(i) with
        | Counter_k -> if s.ints.(i) <> 0 then cs := (names.(i), s.ints.(i)) :: !cs
        | Accum_k -> if s.floats.(i) <> 0. then fs := (names.(i), s.floats.(i)) :: !fs
      done;
      if !cs = [] && !fs = [] then None else Some (s.domain, !cs, !fs))
    (sorted_shards ())
