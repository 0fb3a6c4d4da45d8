let name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let unit_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
  | _ -> false

let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && alnum s.[0] && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all unit_char s

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let merge ts =
  {
    attempted = List.fold_left (fun n t -> n + t.attempted) 0 ts;
    failed = List.fold_left (fun n t -> n + t.failed) 0 ts;
  }

let attempted t = t.attempted
let failed t = t.failed

let error_rate t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ =
  if not (valid_name name) then invalid_arg ("Result.metric: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Result.metric: bad unit " ^ unit_);
  { name; value; unit_ }

(* Shortest decimal that reads back as the same float: every measured digit
   survives, nothing is rounded for display. *)
let number f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_json t metrics =
  let names = List.map (fun m -> m.name) metrics in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Result.to_json: repeated metric name";
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (if Float.is_finite m.value then number m.value else "0")
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0 && t.attempted > 0 && finite)
    t.attempted t.failed
    (String.concat ", " (List.map field metrics))
