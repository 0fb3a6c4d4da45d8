type t = { n : int; rows : float array array }

let create n =
  if n <= 0 then invalid_arg "Matrix.create: need a positive size";
  { n; rows = Array.init n (fun _ -> Array.make n 0.) }

let size t = t.n

let check t src dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Matrix: index out of range"

let get t ~src ~dst =
  check t src dst;
  t.rows.(src).(dst)

let set t ~src ~dst v =
  check t src dst;
  if src = dst then invalid_arg "Matrix.set: diagonal must stay zero";
  if not (Float.is_finite v) then invalid_arg "Matrix.set: non-finite demand";
  if v < 0. then invalid_arg "Matrix.set: negative demand";
  t.rows.(src).(dst) <- v

let copy t = { n = t.n; rows = Array.map Array.copy t.rows }

let total t =
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0. t.rows

let scale_in_place t f =
  if f < 0. then invalid_arg "Matrix.scale: negative factor";
  Array.iter
    (fun row ->
      Array.iteri (fun j v -> row.(j) <- v *. f) row)
    t.rows

let scale t f =
  let t' = copy t in
  scale_in_place t' f;
  t'

let map t f =
  let t' = create t.n in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if src <> dst then
        t'.rows.(src).(dst) <- Float.max 0. (f ~src ~dst t.rows.(src).(dst))
    done
  done;
  t'

let iter t f =
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      let v = t.rows.(src).(dst) in
      if v > 0. then f ~src ~dst v
    done
  done

let pairs t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if t.rows.(src).(dst) > 0. then acc := (src, dst) :: !acc
    done
  done;
  !acc

let num_pairs t =
  let count = ref 0 in
  iter t (fun ~src:_ ~dst:_ _ -> incr count);
  !count

let dense t = t.rows

let of_dense rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Matrix.of_dense: empty";
  let t = create n in
  Array.iteri
    (fun src row ->
      if Array.length row <> n then invalid_arg "Matrix.of_dense: ragged rows";
      Array.iteri
        (fun dst v ->
          if src = dst then begin
            if v <> 0. then invalid_arg "Matrix.of_dense: non-zero diagonal"
          end
          else begin
            if not (Float.is_finite v) then
              invalid_arg "Matrix.of_dense: non-finite demand";
            if v < 0. then invalid_arg "Matrix.of_dense: negative demand";
            t.rows.(src).(dst) <- v
          end)
        row)
    rows;
  t

let add a b =
  if a.n <> b.n then invalid_arg "Matrix.add: size mismatch";
  let t = create a.n in
  for src = 0 to a.n - 1 do
    for dst = 0 to a.n - 1 do
      if src <> dst then
        t.rows.(src).(dst) <- a.rows.(src).(dst) +. b.rows.(src).(dst)
    done
  done;
  t
