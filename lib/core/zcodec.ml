open Mps_geometry
open Mps_netlist
open Mps_placement

let format_version = 1
let magic = "MPSZ0001"
let magic_word = Int64.to_int (String.get_int64_le magic 0)

type error =
  | Io_error of string
  | Corrupt of { section : string; reason : string }
  | Circuit_mismatch of string

exception Error of error

let error_to_string = function
  | Io_error msg -> Printf.sprintf "io error: %s" msg
  | Corrupt { section; reason } ->
    Printf.sprintf "corrupt container: %s: %s" section reason
  | Circuit_mismatch msg -> Printf.sprintf "circuit mismatch: %s" msg

let corrupt section fmt =
  Printf.ksprintf (fun reason -> raise (Error (Corrupt { section; reason }))) fmt

type section = { tag : string; off_words : int; len_words : int }

type view = {
  engine : Structure.Engine.t;
  n_stored : int;
  n_pool : int;
  bytes : int;
  sections : section list;
  state : Persist.words option;
}

(* Words and bytes.

   Reading a mapped word through the int bigarray kind drops bit 63
   (OCaml ints are 63-bit), so the format never stores a word with it
   set: values are OCaml ints written as their sign-extended [Int64]
   image, ASCII (tags, the circuit name) is packed 4 bytes per word,
   and CRC words carry 32 bits.  Under that discipline the int lens is
   lossless, and [Persist.crc32_words] over mapped ints reproduces the
   writer's byte-level CRC exactly. *)

let crc_int c = Int32.to_int c land 0xFFFF_FFFF

let tag_word s =
  Char.code s.[0]
  lor (Char.code s.[1] lsl 8)
  lor (Char.code s.[2] lsl 16)
  lor (Char.code s.[3] lsl 24)

let tag_string v =
  String.init 4 (fun b -> Char.chr ((v lsr (8 * b)) land 0xff))

let float_words f =
  let b = Int64.bits_of_float f in
  ( Int64.to_int (Int64.shift_right_logical b 32),
    Int64.to_int (Int64.logand b 0xFFFF_FFFFL) )

let float_of_words hi lo =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

(* ASCII packed 4 bytes per word, low byte first: the circuit name and
   any string a generator-state section carries. *)
let string_words s =
  Array.init
    ((String.length s + 3) / 4)
    (fun j ->
      let w = ref 0 in
      for b = 0 to 3 do
        let p = (4 * j) + b in
        if p < String.length s then w := !w lor (Char.code s.[p] lsl (8 * b))
      done;
      !w)

let string_of_words (w : Persist.words) ~pos ~len =
  String.init len (fun p -> Char.chr ((w.{pos + (p / 4)} lsr (8 * (p mod 4))) land 0xff))

let section_tags =
  [ "ROWA"; "ROWO"; "LOWS"; "HIGH"; "SETW"; "DOML"; "DOMH"; "BOXL"; "BOXH";
    "BIND"; "POOL"; "PLCT" ]

(* The optional thirteenth section: a generator's resumable state
   (a checkpoint).  Its words are opaque to this module. *)
let state_tag = "GENS"

let n_sections = List.length section_tags
let record_stride n = 6 + (10 * n)

(* Serialization *)

(* The writer fills one word image of the whole container, then
   computes every section CRC and the header CRC over that image with
   the reader's own kernel ([Persist.crc32_words]), and serializes it
   in one pass. *)
type image = { img : Persist.words; mutable pos : int }

let put o v =
  o.img.{o.pos} <- v;
  o.pos <- o.pos + 1

(* One record: the six scalars (pool index, template flag, the two
   costs as split IEEE-754 words), then the 10n coordinates: best dims,
   then the validity and expansion boxes, each as lows then highs in
   axis-code order (2i = width of block i, 2i+1 = height) — the same
   flattening the engine tables use. *)
let put_record o ~n pool_idx (s : Stored.t) =
  let ahi, alo = float_words s.Stored.avg_cost in
  let bhi, blo = float_words s.Stored.best_cost in
  List.iter (put o)
    [ pool_idx; (if s.Stored.template_like then 1 else 0); ahi; alo; bhi; blo ];
  for i = 0 to n - 1 do
    put o (Dims.width s.Stored.best_dims i);
    put o (Dims.height s.Stored.best_dims i)
  done;
  let put_box box =
    for i = 0 to n - 1 do
      put o (Interval.lo (Dimbox.w_interval box i));
      put o (Interval.lo (Dimbox.h_interval box i))
    done;
    for i = 0 to n - 1 do
      put o (Interval.hi (Dimbox.w_interval box i));
      put o (Interval.hi (Dimbox.h_interval box i))
    done
  in
  put_box s.Stored.box;
  put_box s.Stored.expansion

let to_string ?state structure =
  let circuit = Structure.circuit structure in
  let n = Circuit.n_blocks circuit and n_nets = Circuit.n_nets circuit in
  let name = circuit.Circuit.name in
  let die_w, die_h = Structure.die structure in
  let f = Structure.Engine.flatten (Structure.Engine.create structure) in
  let stored = Structure.placements structure in
  (* Stored placement k is record k; the backup is the last record. *)
  let records = Array.append stored [| Structure.backup structure |] in
  (* The coordinate pool dedupes by content: placements with equal
     coordinates (the backup's territory pieces) store them once,
     whether or not they share one array in memory — so a structure
     re-imported from its text dump packs to the same bytes. *)
  let index = Hashtbl.create 64 and pool_rev = ref [] in
  let idx_of (s : Stored.t) =
    let coords = s.Stored.placement.Placement.coords in
    match Hashtbl.find_opt index coords with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index coords i;
      pool_rev := coords :: !pool_rev;
      i
  in
  let idxs = Array.map idx_of records in
  let pool = Array.of_list (List.rev !pool_rev) in
  let open Structure.Engine in
  let tables =
    [ f.f_row_axis; f.f_row_off; f.f_lows; f.f_highs; f.f_set_words; f.f_dom_lo;
      f.f_dom_hi; f.f_box_lo; f.f_box_hi; f.f_box_in_domain ]
  in
  let section_lens =
    List.map Bigarray.Array1.dim tables
    @ [
        Array.fold_left (fun acc c -> acc + (2 * Array.length c)) 0 pool;
        Array.length records * record_stride n;
      ]
    @ match state with None -> [] | Some words -> [ Array.length words ]
  in
  let tags =
    match state with None -> section_tags | Some _ -> section_tags @ [ state_tag ]
  in
  let name_words = string_words name in
  let header_words = 13 + Array.length name_words + (List.length tags * 4) + 1 in
  let total_words = header_words + List.fold_left ( + ) 0 section_lens in
  let o =
    { img = Bigarray.Array1.create Bigarray.int Bigarray.c_layout total_words; pos = 0 }
  in
  List.iter (put o)
    [
      magic_word; format_version; total_words; header_words; n; n_nets;
      die_w; die_h; Array.length stored; Array.length pool; f.f_words_per_set;
      f.f_skipped_rows; String.length name;
    ];
  Array.iter (put o) name_words;
  let table = o.pos in
  o.pos <- header_words;
  List.iter
    (fun (v : ints) ->
      for i = 0 to Bigarray.Array1.dim v - 1 do
        put o v.{i}
      done)
    tables;
  Array.iter
    (Array.iter (fun (x, y) ->
         put o x;
         put o y))
    pool;
  Array.iteri (fun k s -> put_record o ~n idxs.(k) s) records;
  Option.iter (Array.iter (put o)) state;
  o.pos <- table;
  let off = ref header_words in
  List.iter2
    (fun tag len ->
      put o (tag_word tag);
      put o !off;
      put o len;
      put o (crc_int (Persist.crc32_words o.img ~pos:!off ~len));
      off := !off + len)
    tags section_lens;
  put o (crc_int (Persist.crc32_words o.img ~pos:0 ~len:(header_words - 1)));
  let bytes = Bytes.create (8 * total_words) in
  for i = 0 to total_words - 1 do
    Bytes.set_int64_le bytes (8 * i) (Int64.of_int o.img.{i})
  done;
  Bytes.unsafe_to_string bytes

let save ?state structure ~path =
  try Persist.atomic_write ~path (to_string ?state structure)
  with Sys_error msg -> raise (Error (Io_error msg))

(* Parsing *)

type header = {
  h_total : int;
  h_header_words : int;
  h_size_ok : bool;  (** header's total-words claim matches the file size *)
  h_n_blocks : int;
  h_n_nets : int;
  h_die_w : int;
  h_die_h : int;
  h_n_stored : int;
  h_n_pool : int;
  h_words_per_set : int;
  h_skipped : int;
  h_name : string;
  h_table : (string * int * int * int) list;  (** tag, off, len, crc *)
  h_crc_ok : bool;
}

(* The fixed header plus the section table; raises only when the
   header itself is unusable — damage past it is for the caller (and
   recorded in [h_size_ok] / [h_crc_ok], which salvage tolerates). *)
let parse_header (w : Persist.words) ~bytes =
  let dim = Bigarray.Array1.dim w in
  if dim < 13 then corrupt "header" "file too short (%d bytes)" bytes;
  if w.{0} <> magic_word then corrupt "header" "bad magic";
  let version = w.{1} in
  if version <> format_version then
    corrupt "header" "unsupported container version %d" version;
  let total = w.{2} and header_words = w.{3} in
  let name_len = w.{12} in
  if name_len < 0 || name_len > 4096 then
    corrupt "header" "implausible circuit-name length %d" name_len;
  let nw = (name_len + 3) / 4 in
  (* the table holds the twelve structure sections, or those and the
     generator-state section *)
  let n_table = (header_words - 14 - nw) / 4 in
  if
    (n_table <> n_sections && n_table <> n_sections + 1)
    || header_words <> 14 + nw + (n_table * 4)
    || header_words > dim
  then corrupt "header" "malformed header geometry";
  let name = string_of_words w ~pos:13 ~len:name_len in
  let table_base = 13 + nw in
  let table =
    List.init n_table (fun k ->
        let b = table_base + (4 * k) in
        (tag_string (w.{b} land 0xFFFF_FFFF), w.{b + 1}, w.{b + 2}, w.{b + 3}))
  in
  let crc_ok =
    w.{header_words - 1}
    = crc_int (Persist.crc32_words w ~pos:0 ~len:(header_words - 1))
  in
  {
    h_total = total;
    h_header_words = header_words;
    h_size_ok = total * 8 = bytes && total = dim;
    h_n_blocks = w.{4};
    h_n_nets = w.{5};
    h_die_w = w.{6};
    h_die_h = w.{7};
    h_n_stored = w.{8};
    h_n_pool = w.{9};
    h_words_per_set = w.{10};
    h_skipped = w.{11};
    h_name = name;
    h_table = table;
    h_crc_ok = crc_ok;
  }

let check_circuit h ~circuit =
  if
    h.h_n_blocks <> Circuit.n_blocks circuit
    || h.h_n_nets <> Circuit.n_nets circuit
    || h.h_name <> circuit.Circuit.name
  then
    raise
      (Error
         (Circuit_mismatch
            (Printf.sprintf "container was generated for %s (%d blocks), not %s"
               h.h_name h.h_n_blocks circuit.Circuit.name)))

let decode_record ~(pool : Persist.words) ~n_pool ~n ~die_w ~die_h
    ~(plct : Persist.words) k =
  let base = k * record_stride n in
  let g i = plct.{base + i} in
  let pool_idx = g 0 in
  if pool_idx < 0 || pool_idx >= n_pool then
    invalid_arg (Printf.sprintf "pool index %d out of range" pool_idx);
  let coords =
    Array.init n (fun i ->
        (pool.{(pool_idx * 2 * n) + (2 * i)}, pool.{(pool_idx * 2 * n) + (2 * i) + 1}))
  in
  let placement = Placement.make ~coords ~die_w ~die_h in
  let template_like = g 1 <> 0 in
  let word32 i =
    let v = g i in
    if v < 0 || v > 0xFFFF_FFFF then invalid_arg "cost word out of range";
    v
  in
  let avg_cost = float_of_words (word32 2) (word32 3) in
  let best_cost = float_of_words (word32 4) (word32 5) in
  let best_dims =
    Dims.make
      ~w:(Array.init n (fun i -> g (6 + (2 * i))))
      ~h:(Array.init n (fun i -> g (6 + (2 * i) + 1)))
  in
  (* A box is a range of block sizes: every bound positive and small
     enough that a draw over it cannot overflow.  Refusing anything else
     here keeps damaged bounds out of the auditor's samplers. *)
  let interval lo hi =
    if lo < 1 || hi > 1 lsl 30 then
      invalid_arg (Printf.sprintf "box bound %d..%d out of range" lo hi);
    Interval.make lo hi
  in
  let box_at o =
    let wiv =
      Array.init n (fun i -> interval (g (o + (2 * i))) (g (o + (2 * n) + (2 * i))))
    in
    let hiv =
      Array.init n (fun i ->
          interval (g (o + (2 * i) + 1)) (g (o + (2 * n) + (2 * i) + 1)))
    in
    Dimbox.make ~w:wiv ~h:hiv
  in
  let box = box_at (6 + (2 * n)) in
  let expansion = box_at (6 + (6 * n)) in
  Stored.make ~template_like ~placement ~box ~expansion ~avg_cost ~best_cost
    ~best_dims

let parse ~circuit (w : Persist.words) ~bytes =
  let h = parse_header w ~bytes in
  if not h.h_size_ok then
    corrupt "header" "size mismatch: header says %d words, file has %d bytes"
      h.h_total bytes;
  if not h.h_crc_ok then corrupt "header" "header checksum mismatch";
  check_circuit h ~circuit;
  if h.h_n_stored <= 0 then corrupt "header" "no stored placements";
  if h.h_n_pool <= 0 then corrupt "header" "empty coordinate pool";
  if h.h_skipped < 0 then corrupt "header" "negative skipped-row count";
  let off = ref h.h_header_words in
  List.iteri
    (fun k (tag, o, l, _) ->
      let etag = if k < n_sections then List.nth section_tags k else state_tag in
      if tag <> etag then
        corrupt etag "found section tag %S in its slot" tag;
      if o <> !off || l < 0 || o + l > h.h_total then
        corrupt etag "bad section bounds (%d + %d words)" o l;
      off := o + l)
    h.h_table;
  if !off <> h.h_total then corrupt "header" "sections do not cover the file";
  List.iter
    (fun (tag, o, l, c) ->
      if crc_int (Persist.crc32_words w ~pos:o ~len:l) <> c then
        corrupt tag "section checksum mismatch")
    h.h_table;
  let sec tag =
    let _, o, l, _ = List.find (fun (t, _, _, _) -> t = tag) h.h_table in
    Bigarray.Array1.sub w o l
  in
  let n = h.h_n_blocks in
  let pool = sec "POOL" and plct = sec "PLCT" in
  if Bigarray.Array1.dim pool <> h.h_n_pool * 2 * n then
    corrupt "POOL" "pool length disagrees with the header";
  if Bigarray.Array1.dim plct <> (h.h_n_stored + 1) * record_stride n then
    corrupt "PLCT" "record-table length disagrees with the header";
  let record k =
    match
      decode_record ~pool ~n_pool:h.h_n_pool ~n ~die_w:h.h_die_w ~die_h:h.h_die_h
        ~plct k
    with
    | s -> s
    | exception Invalid_argument msg -> corrupt "PLCT" "record %d: %s" k msg
  in
  let stored = Array.init h.h_n_stored record in
  let backup = record h.h_n_stored in
  let flat =
    {
      Structure.Engine.f_capacity = h.h_n_stored;
      f_words_per_set = h.h_words_per_set;
      f_skipped_rows = h.h_skipped;
      f_row_axis = sec "ROWA";
      f_row_off = sec "ROWO";
      f_lows = sec "LOWS";
      f_highs = sec "HIGH";
      f_set_words = sec "SETW";
      f_dom_lo = sec "DOML";
      f_dom_hi = sec "DOMH";
      f_box_lo = sec "BOXL";
      f_box_hi = sec "BOXH";
      f_box_in_domain = sec "BIND";
    }
  in
  let engine =
    match
      Structure.Engine.of_flat ~circuit ~stored ~backup
        ~die:(h.h_die_w, h.h_die_h) flat
    with
    | e -> e
    | exception Invalid_argument msg -> corrupt "engine" "%s" msg
  in
  {
    engine;
    n_stored = h.h_n_stored;
    n_pool = h.h_n_pool;
    bytes;
    sections =
      List.map
        (fun (tag, o, l, _) -> { tag; off_words = o; len_words = l })
        h.h_table;
    state =
      (if List.length h.h_table > n_sections then Some (sec state_tag) else None);
  }

let words_of_string raw =
  let nwords = String.length raw / 8 in
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nwords in
  for i = 0 to nwords - 1 do
    (* [Int64.to_int] drops bit 63 exactly like the int lens over a
       mapped file, so in-memory and mapped parses agree on any input *)
    b.{i} <- Int64.to_int (String.get_int64_le raw (i * 8))
  done;
  b

let of_string ~circuit raw =
  parse ~circuit (words_of_string raw) ~bytes:(String.length raw)

let load ~circuit path =
  let w, bytes =
    try Persist.map_words ~path
    with Sys_error msg -> raise (Error (Io_error msg))
  in
  parse ~circuit w ~bytes

(* Salvage *)

type recovered = {
  r_stored : Stored.t list;
  r_backup : Stored.t option;
  r_claimed : int;
  r_crc_ok : bool;
}

let salvage_parts ~circuit (w : Persist.words) ~bytes =
  match parse_header w ~bytes with
  | exception Error e -> Result.Error e
  | h -> (
    match check_circuit h ~circuit with
    | exception Error e -> Result.Error e
    | () -> (
      let dim = Bigarray.Array1.dim w in
      let n = h.h_n_blocks in
      (* Only the pool and record table matter here: salvage recompiles
         from placements, so the engine sections may be arbitrary
         garbage.  Bound every count by what the file actually holds
         rather than trusting the header: a section cut short by
         truncation keeps the words present, and the whole records
         among them still decode. *)
      let slot k tag =
        let t, o, l, _ = List.nth h.h_table k in
        if t <> tag then
          Result.Error
            (Corrupt
               { section = tag; reason = Printf.sprintf "found section tag %S in its slot" t })
        else if o < 0 || l < 0 || o > dim then
          Result.Error (Corrupt { section = tag; reason = "section lies outside the file" })
        else Result.Ok (Bigarray.Array1.sub w o (min l (dim - o)))
      in
      match (slot 10 "POOL", slot 11 "PLCT") with
      | Result.Error e, _ | _, Result.Error e -> Result.Error e
      | Result.Ok _, Result.Ok _ when n <= 0 ->
        Result.Error (Corrupt { section = "header"; reason = "no blocks" })
      | Result.Ok pool, Result.Ok plct ->
        let crc_ok =
          h.h_crc_ok && h.h_size_ok
          && List.for_all
               (fun (_, o, l, c) ->
                 o >= 0 && l >= 0 && o + l <= dim
                 && crc_int (Persist.crc32_words w ~pos:o ~len:l) = c)
               h.h_table
        in
        let n_pool = min h.h_n_pool (Bigarray.Array1.dim pool / (2 * n)) in
        let n_records =
          min (h.h_n_stored + 1) (Bigarray.Array1.dim plct / record_stride n)
        in
        let record k =
          match
            decode_record ~pool ~n_pool ~n ~die_w:h.h_die_w ~die_h:h.h_die_h ~plct k
          with
          | s -> Some s
          | exception Invalid_argument _ -> None
        in
        Result.Ok
          {
            r_stored =
              List.filter_map record (List.init (max 0 (min h.h_n_stored n_records)) Fun.id);
            r_backup = (if n_records > h.h_n_stored then record h.h_n_stored else None);
            r_claimed = h.h_n_stored;
            r_crc_ok = crc_ok;
          }))
