module Lexico = Dtr_cost.Lexico

(* Int-keyed LRU on the rolling hash; collisions are resolved by comparing
   the stored weight vectors, so a hit is always the exact previously
   computed cost — collisions only cost a miss, never a wrong answer. *)
module Lru = Dtr_util.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type value = Full of Lexico.t | Lower of Lexico.t

type entry = {
  e_wd : int array;
  e_wt : int array;
  e_epoch : int;
  e_value : value;
}

type t = {
  lru : entry Lru.t;
  mutable epoch : int;
  (* verified hits/misses: the inner LRU's own stats count raw key probes,
     which a hash collision or a stale epoch would inflate *)
  mutable hits : int;
  mutable lower_hits : int;
  mutable misses : int;
}

let create ~capacity =
  { lru = Lru.create ~capacity; epoch = 0; hits = 0; lower_hits = 0; misses = 0 }

let bump t = t.epoch <- t.epoch + 1

(* Splitmix-style scramble of one arc's weight pair.  XORing the per-arc
   mixes makes the vector hash rolling: a single-arc change shifts the hash
   in O(1) ([shift]), which is what lets the search maintain the trial
   vector's key incrementally instead of rehashing O(arcs) per move.
   Constants stay below 2^62 so the literals fit OCaml's native int. *)
let mix ~arc ~wd ~wt =
  let z =
    ((arc + 1) * 0x2545F4914F6CDD1D)
    lxor ((wd + 0x632BE59B) * 0x27BB2EE687B0B0FD)
    lxor ((wt + 0x9E3779B9) * 0x369DEA0F31A53F85)
  in
  let z = z lxor (z lsr 31) in
  let z = z * 0x2545F4914F6CDD1D in
  z lxor (z lsr 28)

let hash_of (w : Weights.t) =
  let h = ref 0 in
  for a = 0 to Array.length w.Weights.wd - 1 do
    h := !h lxor mix ~arc:a ~wd:w.Weights.wd.(a) ~wt:w.Weights.wt.(a)
  done;
  !h

let shift h ~arc ~old_wd ~old_wt ~new_wd ~new_wt =
  h
  lxor mix ~arc ~wd:old_wd ~wt:old_wt
  lxor mix ~arc ~wd:new_wd ~wt:new_wt

let eq_arr a b =
  let n = Array.length a in
  Array.length b = n
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let find t ~hash (w : Weights.t) =
  match Lru.find t.lru hash with
  | Some e when e.e_epoch = t.epoch && eq_arr w.Weights.wd e.e_wd
                && eq_arr w.Weights.wt e.e_wt ->
      (match e.e_value with
      | Full _ -> t.hits <- t.hits + 1
      | Lower _ -> t.lower_hits <- t.lower_hits + 1);
      Prune.note_cache_hit ();
      Some e.e_value
  | Some _ | None ->
      t.misses <- t.misses + 1;
      Prune.note_cache_miss ();
      None

let store t ~hash (w : Weights.t) value =
  Lru.add t.lru hash
    {
      e_wd = Array.copy w.Weights.wd;
      e_wt = Array.copy w.Weights.wt;
      e_epoch = t.epoch;
      e_value = value;
    }

(* A fresher abort never downgrades: a [Full] entry for the same vector is
   strictly more informative than any lower bound, so keep it. *)
let record_at t ~hash (w : Weights.t) value =
  match value with
  | Full _ -> store t ~hash w value
  | Lower _ -> (
      match Lru.find t.lru hash with
      | Some { e_value = Full _; e_epoch; e_wd; e_wt }
        when e_epoch = t.epoch && eq_arr w.Weights.wd e_wd
             && eq_arr w.Weights.wt e_wt ->
          ()
      | _ -> store t ~hash w value)

(* The search's view of the cache: a shadow of the committed vector and its
   rolling hash, plus the staged single-arc move (arc, wd, wt, key).
   Without a cache the cursor keeps no shadow at all. *)
type cursor = {
  cache : t option;
  mutable base : Weights.t option;
  mutable key : int;
  mutable staged : (int * int * int * int) option;
}

let cursor cache = { cache; base = None; key = 0; staged = None }

let start c w =
  if Option.is_some c.cache then begin
    c.base <- Some (Weights.copy w);
    c.key <- hash_of w;
    c.staged <- None
  end

let stage c (w : Weights.t) ~arc =
  Option.iter
    (fun (b : Weights.t) ->
      let wd = w.wd.(arc) and wt = w.wt.(arc) in
      let key = shift c.key ~arc ~old_wd:b.wd.(arc) ~old_wt:b.wt.(arc) ~new_wd:wd ~new_wt:wt in
      c.staged <- Some (arc, wd, wt, key))
    c.base

let key c = match c.staged with Some (_, _, _, h) -> h | None -> c.key
let lookup c w = Option.bind c.cache (fun t -> find t ~hash:(key c) w)
let record c w value = Option.iter (fun t -> record_at t ~hash:(key c) w value) c.cache

let commit c =
  match (c.staged, c.base) with
  | Some (arc, wd, wt, h), Some b ->
      Weights.set_arc b ~arc ~wd ~wt;
      c.key <- h;
      c.staged <- None
  | _ -> ()

let rollback c = c.staged <- None

type stats = {
  hits : int;
  lower_hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

let stats t =
  let s = Lru.stats t.lru in
  {
    hits = t.hits;
    lower_hits = t.lower_hits;
    misses = t.misses;
    evictions = s.Dtr_util.Lru.evictions;
    length = s.Dtr_util.Lru.length;
    capacity = s.Dtr_util.Lru.capacity;
  }
