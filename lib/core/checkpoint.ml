open Mps_netlist
open Mps_placement

let magic = "mps-checkpoint v2"

type walk = {
  w_step : int;
  w_cost : float;
  w_current : Placement.t;
  w_rng : Mps_rng.Rng.t;
}

type t = {
  step : int;
  dropped : int;
  chunk : int;
  walks : walk array;
  structure : Structure.t;
}

let coords_line coords =
  String.concat " "
    (List.map (fun (x, y) -> Printf.sprintf "%d %d" x y) (Array.to_list coords))

let to_string cp =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "step %d" cp.step;
  line "dropped %d" cp.dropped;
  line "walks %d %d" (Array.length cp.walks) cp.chunk;
  Array.iter
    (fun w ->
      line "walk %d %.17g %s" w.w_step w.w_cost (coords_line w.w_current.Placement.coords);
      line "walk_rng %s" (Mps_rng.Rng.to_string w.w_rng))
    cp.walks;
  Buffer.add_string buf (Codec.to_string cp.structure);
  let payload = Buffer.contents buf in
  Printf.sprintf "%s\nchecksum %s\n%s" magic (Persist.crc32_hex payload) payload

let corrupt lineno fmt =
  Printf.ksprintf
    (fun reason -> raise (Codec.Error (Codec.Corrupt { lineno; reason })))
    fmt

(* [take_line s from] returns the line starting at byte [from] and the
   offset just past its newline. *)
let take_line s from =
  let len = String.length s in
  if from >= len then None
  else
    match String.index_from_opt s from '\n' with
    | Some i -> Some (String.sub s from (i - from), i + 1)
    | None -> Some (String.sub s from (len - from), len)

let field ~lineno ~prefix line =
  let plen = String.length prefix in
  if String.length line >= plen && String.sub line 0 plen = prefix then
    String.trim (String.sub line plen (String.length line - plen))
  else corrupt lineno "expected %S, got %S" prefix line

let parse_coords ~lineno ~circuit s =
  let ints =
    List.filter_map
      (fun t -> if t = "" then None else Some t)
      (String.split_on_char ' ' s)
    |> List.map (fun t ->
           match int_of_string_opt t with
           | Some v -> v
           | None -> corrupt lineno "expected an integer, got %S" t)
  in
  let rec pair_up = function
    | [] -> []
    | a :: b :: rest -> (a, b) :: pair_up rest
    | [ _ ] -> corrupt lineno "odd number of coordinates"
  in
  let coords = Array.of_list (pair_up ints) in
  if Array.length coords <> Circuit.n_blocks circuit then
    corrupt lineno "expected %d coordinates" (Circuit.n_blocks circuit);
  coords

(* Newlines in [s] from byte [from] on: the lines a count may claim. *)
let lines_from s from =
  let n = ref 0 in
  for i = from to String.length s - 1 do
    if s.[i] = '\n' then incr n
  done;
  !n

let of_string ~circuit raw =
  (* header + checksum over the rest, mirroring the codec's framing *)
  let l1, o1 =
    match take_line raw 0 with Some v -> v | None -> corrupt 1 "empty checkpoint"
  in
  if l1 <> magic then corrupt 1 "bad header %S" l1;
  let l2, o2 =
    match take_line raw o1 with Some v -> v | None -> corrupt 2 "missing checksum line"
  in
  let expected = field ~lineno:2 ~prefix:"checksum " l2 in
  let payload = String.sub raw o2 (String.length raw - o2) in
  let actual = Persist.crc32_hex payload in
  if String.lowercase_ascii expected <> actual then
    corrupt 2 "checksum mismatch: header %s, payload %s" expected actual;
  let get lineno prefix from =
    match take_line payload from with
    | Some (l, next) -> (field ~lineno ~prefix l, next)
    | None -> corrupt lineno "unexpected end of checkpoint"
  in
  let int_field lineno s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> v
    | _ -> corrupt lineno "expected a non-negative integer, got %S" s
  in
  let step_s, o = get 3 "step " 0 in
  let dropped_s, o = get 4 "dropped " o in
  let walks_s, o = get 5 "walks " o in
  let step = int_field 3 step_s in
  let dropped = int_field 4 dropped_s in
  let count, chunk =
    match String.split_on_char ' ' walks_s with
    | [ r; c ] -> (int_field 5 r, int_field 5 c)
    | _ -> corrupt 5 "expected 'walks <count> <chunk>', got %S" walks_s
  in
  if count < 1 || chunk < 1 then corrupt 5 "walks section needs count >= 1 and chunk >= 1";
  (* two lines per walk: a count the rest of the file cannot hold is
     damage, refused before any record is read *)
  if count > lines_from payload o / 2 then
    corrupt 5 "walk count %d exceeds the lines left" count;
  let o = ref o and raw_walks = ref [] in
  for w = 0 to count - 1 do
    let lineno = 6 + (2 * w) in
    let walk_s, next = get lineno "walk " !o in
    let rng_s, next = get (lineno + 1) "walk_rng " next in
    o := next;
    raw_walks := (lineno, walk_s, rng_s) :: !raw_walks
  done;
  let structure =
    Codec.of_string ~circuit (String.sub payload !o (String.length payload - !o))
  in
  let die_w, die_h = Structure.die structure in
  let walk (lineno, walk_s, rng_s) =
    match String.split_on_char ' ' walk_s with
    | step_s :: cost_s :: coords ->
      let w_cost =
        match float_of_string_opt cost_s with
        | Some v -> v
        | None -> corrupt lineno "expected a float, got %S" cost_s
      in
      let coords = parse_coords ~lineno ~circuit (String.concat " " coords) in
      let w_current =
        match Placement.make ~coords ~die_w ~die_h with
        | p -> p
        | exception Invalid_argument msg -> corrupt lineno "bad placement: %s" msg
      in
      let w_rng =
        match Mps_rng.Rng.of_string rng_s with
        | Some r -> r
        | None -> corrupt (lineno + 1) "unreadable rng state"
      in
      { w_step = int_field lineno step_s; w_cost; w_current; w_rng }
    | _ -> corrupt lineno "expected 'walk <step> <cost> <coords>'"
  in
  let walks = Array.of_list (List.rev_map walk !raw_walks) in
  { step; dropped; chunk; walks; structure }

let save cp ~path =
  try Persist.atomic_write ~path (to_string cp)
  with Sys_error msg -> raise (Codec.Error (Codec.Io_error msg))

let load ~circuit ~path =
  let raw =
    try Persist.read_file ~path
    with Sys_error msg -> raise (Codec.Error (Codec.Io_error msg))
  in
  of_string ~circuit raw
