open Mps_geometry
open Mps_netlist
open Mps_placement

let magic_v2 = "mps-structure v2"

type error =
  | Io_error of string
  | Corrupt of { lineno : int; reason : string }
  | Circuit_mismatch of string

exception Error of error

let error_to_string = function
  | Io_error msg -> Printf.sprintf "io error: %s" msg
  | Corrupt { lineno; reason } -> Printf.sprintf "corrupt document: line %d: %s" lineno reason
  | Circuit_mismatch msg -> Printf.sprintf "circuit mismatch: %s" msg

let corrupt lineno fmt =
  Printf.ksprintf (fun reason -> raise (Error (Corrupt { lineno; reason }))) fmt

(* Serialization *)

let box_lines prefix box =
  let n = Dimbox.n_blocks box in
  let per axis_interval =
    String.concat " "
      (List.init n (fun i ->
           let iv = axis_interval i in
           Printf.sprintf "%d %d" (Interval.lo iv) (Interval.hi iv)))
  in
  [
    Printf.sprintf "%s.w %s" prefix (per (Dimbox.w_interval box));
    Printf.sprintf "%s.h %s" prefix (per (Dimbox.h_interval box));
  ]

let payload_of structure =
  let circuit = Structure.circuit structure in
  let die_w, die_h = Structure.die structure in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "circuit %d %d %s" (Circuit.n_blocks circuit) (Circuit.n_nets circuit)
    circuit.Circuit.name;
  line "die %d %d" die_w die_h;
  let write_placement s =
    line "placement %.17g %.17g %d" s.Stored.avg_cost s.Stored.best_cost
      (if s.Stored.template_like then 1 else 0);
    line "coords %s"
      (String.concat " "
         (List.map
            (fun (x, y) -> Printf.sprintf "%d %d" x y)
            (Array.to_list s.Stored.placement.Placement.coords)));
    List.iter (line "%s") (box_lines "box" s.Stored.box);
    List.iter (line "%s") (box_lines "expansion" s.Stored.expansion);
    let n = Stored.n_blocks s in
    line "best_dims %s"
      (String.concat " "
         (List.init n (fun i ->
              Printf.sprintf "%d %d" (Dims.width s.Stored.best_dims i)
                (Dims.height s.Stored.best_dims i))))
  in
  let stored = Structure.placements structure in
  line "placements %d" (Array.length stored);
  Array.iter write_placement stored;
  line "backup";
  write_placement (Structure.backup structure);
  Buffer.contents buf

let to_string structure =
  let payload = payload_of structure in
  Printf.sprintf "%s\nchecksum %s\n%s" magic_v2 (Persist.crc32_hex payload) payload

(* Parsing.

   The cursor carries the absolute 1-based line number so every error is
   line-accurate in the physical file regardless of how many header
   lines preceded the payload. *)

type cursor = { mutable lines : string list; mutable lineno : int }

let fail cursor fmt = Printf.ksprintf (fun s -> corrupt (cursor.lineno + 1) "%s" s) fmt

let next cursor =
  match cursor.lines with
  | [] -> fail cursor "unexpected end of document"
  | l :: rest ->
    cursor.lines <- rest;
    cursor.lineno <- cursor.lineno + 1;
    l

let expect_prefix cursor prefix =
  let l = next cursor in
  match String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix with
  | true -> String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix))
  | false -> corrupt cursor.lineno "expected %S, got %S" prefix l

let ints_of cursor s =
  List.map
    (fun tok ->
      match int_of_string_opt tok with
      | Some v -> v
      | None -> corrupt cursor.lineno "expected an integer, got %S" tok)
    (String.split_on_char ' ' (String.trim s) |> List.filter (fun t -> t <> ""))

let pairs_of cursor s =
  let rec pair_up = function
    | [] -> []
    | a :: b :: rest -> (a, b) :: pair_up rest
    | [ _ ] -> corrupt cursor.lineno "odd number of integers"
  in
  pair_up (ints_of cursor s)

let intervals_of cursor n s =
  let pairs = pairs_of cursor s in
  if List.length pairs <> n then
    corrupt cursor.lineno "expected %d intervals, got %d" n (List.length pairs);
  Array.of_list
    (List.map
       (fun (lo, hi) ->
         if lo > hi then corrupt cursor.lineno "inverted interval %d..%d" lo hi
         else Interval.make lo hi)
       pairs)

let box_of cursor n prefix =
  let w = intervals_of cursor n (expect_prefix cursor (prefix ^ ".w ")) in
  let h = intervals_of cursor n (expect_prefix cursor (prefix ^ ".h ")) in
  Dimbox.make ~w ~h

let read_placement cursor ~n ~die_w ~die_h =
  let costs = expect_prefix cursor "placement " in
  let avg_cost, best_cost, template_like =
    match
      String.split_on_char ' ' (String.trim costs)
      |> List.filter (fun t -> t <> "")
      |> List.map float_of_string_opt
    with
    | [ Some a; Some b; Some flag ] -> (a, b, flag <> 0.0)
    | _ -> corrupt cursor.lineno "malformed placement costs"
  in
  let coords = pairs_of cursor (expect_prefix cursor "coords ") in
  if List.length coords <> n then corrupt cursor.lineno "expected %d coordinates" n;
  let box = box_of cursor n "box" in
  let expansion = box_of cursor n "expansion" in
  let best_pairs = pairs_of cursor (expect_prefix cursor "best_dims ") in
  if List.length best_pairs <> n then corrupt cursor.lineno "expected %d best dims" n;
  let best_dims = Dims.of_pairs (Array.of_list best_pairs) in
  let placement =
    match Placement.make ~coords:(Array.of_list coords) ~die_w ~die_h with
    | p -> p
    | exception Invalid_argument msg -> corrupt cursor.lineno "bad placement: %s" msg
  in
  match
    Stored.make ~template_like ~placement ~box ~expansion ~avg_cost ~best_cost ~best_dims
  with
  | s -> s
  | exception Invalid_argument msg -> corrupt cursor.lineno "inconsistent placement: %s" msg

(* Identity header: circuit line (validated against the caller's
   circuit) and die line. *)

let read_identity cursor ~circuit =
  let id = expect_prefix cursor "circuit " in
  (match String.split_on_char ' ' id with
  | blocks :: nets :: name_parts ->
    let name = String.concat " " name_parts in
    (match (int_of_string_opt blocks, int_of_string_opt nets) with
    | Some _, Some _ -> ()
    | _ -> corrupt cursor.lineno "malformed circuit line");
    if
      int_of_string_opt blocks <> Some (Circuit.n_blocks circuit)
      || int_of_string_opt nets <> Some (Circuit.n_nets circuit)
      || name <> circuit.Circuit.name
    then
      raise
        (Error
           (Circuit_mismatch
              (Printf.sprintf "structure was generated for %s (%s blocks), not %s" name
                 blocks circuit.Circuit.name)))
  | _ -> corrupt cursor.lineno "malformed circuit line");
  let die = ints_of cursor (expect_prefix cursor "die ") in
  match die with [ w; h ] -> (w, h) | _ -> corrupt cursor.lineno "malformed die line"

let parse_payload ~circuit cursor =
  let die_w, die_h = read_identity cursor ~circuit in
  let count =
    match ints_of cursor (expect_prefix cursor "placements ") with
    | [ c ] when c > 0 -> c
    | _ -> corrupt cursor.lineno "malformed placements line"
  in
  (* A count the rest of the document cannot hold is damage, refused
     before any record is read; the records are read, not pre-sized. *)
  if count > List.length cursor.lines then
    corrupt cursor.lineno "placement count %d exceeds the lines left" count;
  let n = Circuit.n_blocks circuit in
  let stored =
    Array.of_list (List.init count (fun _ -> read_placement cursor ~n ~die_w ~die_h))
  in
  let backup =
    match next cursor with
    | "backup" -> read_placement cursor ~n ~die_w ~die_h
    | other -> corrupt cursor.lineno "expected backup section, got %S" other
  in
  match Structure.of_placements ~backup circuit stored with
  | s -> s
  | exception Invalid_argument msg -> corrupt cursor.lineno "%s" msg

(* The checksum covers the exact bytes after the checksum line, so it
   is verified on the raw string before any line splitting. *)
let of_string ~circuit raw =
  let len = String.length raw in
  let line_end from =
    match String.index_from_opt raw from '\n' with Some i -> i | None -> len
  in
  let e1 = line_end 0 in
  (* unknown magic: one clean line, never a dump of binary junk *)
  if String.sub raw 0 e1 <> magic_v2 then
    corrupt 1 "unrecognized format (expected mps-structure v2)";
  let e2 = line_end (min len (e1 + 1)) in
  let second = if e1 >= len then "" else String.sub raw (e1 + 1) (e2 - e1 - 1) in
  if not (String.starts_with ~prefix:"checksum " second) then
    corrupt 2 "missing checksum line";
  let payload = if e2 >= len then "" else String.sub raw (e2 + 1) (len - e2 - 1) in
  let expected = String.trim (String.sub second 9 (String.length second - 9)) in
  let actual = Persist.crc32_hex payload in
  if String.lowercase_ascii expected <> actual then
    corrupt 2 "checksum mismatch: header %s, payload %s" expected actual;
  parse_payload ~circuit { lines = String.split_on_char '\n' payload; lineno = 2 }

let save structure ~path =
  try Persist.atomic_write ~path (to_string structure)
  with Sys_error msg -> raise (Error (Io_error msg))

let load ~circuit ~path =
  let raw =
    try Persist.read_file ~path with Sys_error msg -> raise (Error (Io_error msg))
  in
  of_string ~circuit raw
