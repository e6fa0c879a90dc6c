(* The MPSZ zero-copy container (Zcodec).

   The format stores the compiled engine verbatim, so the property that
   matters is bit-identical answers: an engine served straight off the
   mapped words must agree with the heap engine and the linear oracle
   on every probe, and instantiation must produce the same floorplans.
   Damage must surface as a typed [Corrupt] — never a crash, never a
   silently wrong answer on a verified load. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let structures = Fixtures.structures

let for_all f () = List.iter (fun (c, s) -> f c s) (Lazy.force structures)

(* Same mixed-regime probe generator as the engine suite: uniform
   in-domain vectors, past-the-max out-of-domain vectors, and jitter
   around stored best vectors (the sizing-loop shape). *)
let probe rng structure stored =
  let circuit = Structure.circuit structure in
  let bounds = Circuit.dim_bounds circuit in
  let base = Dimbox.random_dims rng bounds in
  match Rng.int rng 4 with
  | 0 | 1 -> base
  | 2 ->
    let i = Rng.int rng (Dims.n_blocks base) in
    if Rng.int rng 2 = 0 then
      Dims.set_width base i (Interval.hi (Dimbox.w_interval bounds i) + 1 + Rng.int rng 8)
    else
      Dims.set_height base i
        (Interval.hi (Dimbox.h_interval bounds i) + 1 + Rng.int rng 8)
  | _ ->
    let s : Stored.t = stored.(Rng.int rng (Array.length stored)) in
    let d = ref s.Stored.best_dims in
    for _ = 1 to 2 do
      let i = Rng.int rng (Dims.n_blocks !d) in
      let bump = Rng.int_in rng (-2) 2 in
      d :=
        (if Rng.int rng 2 = 0 then Dims.set_width !d i (max 1 (Dims.width !d i + bump))
         else Dims.set_height !d i (max 1 (Dims.height !d i + bump)))
    done;
    !d

let save_tmp structure =
  let path = Filename.temp_file "mps_zcodec" ".mpsz" in
  Zcodec.save structure ~path;
  path

let load_view circuit path =
  try Zcodec.load ~circuit path
  with Zcodec.Error e -> Alcotest.failf "load: %s" (Zcodec.error_to_string e)

let rects_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (r1 : Rect.t) (r2 : Rect.t) ->
         r1.Rect.x = r2.Rect.x && r1.Rect.y = r2.Rect.y && r1.Rect.w = r2.Rect.w
         && r1.Rect.h = r2.Rect.h)
       a b

(* Tentpole property: the mapped engine answers and instantiates
   bit-identically to the heap engine and the linear oracle on 10k
   mixed probes per circuit. *)
let test_mapped_engine_matches_oracle c structure =
  let heap = Structure.Engine.create structure in
  let path = save_tmp structure in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let view = load_view c path in
      let mapped = view.Zcodec.engine in
      let s_heap = Structure.Engine.new_session () in
      let s_map = Structure.Engine.new_session () in
      let stored = Structure.placements structure in
      let rng = Rng.create ~seed:29 in
      for k = 1 to 10_000 do
        let dims = probe rng structure stored in
        let a_lin, _ = Structure.query_linear structure dims in
        let a_heap = Structure.Engine.query_id heap s_heap dims in
        let a_map = Structure.Engine.query_id mapped s_map dims in
        if a_heap <> a_map then
          Alcotest.failf "%s probe %d: heap engine %d, mapped engine %d"
            c.Circuit.name k a_heap a_map;
        (match (a_lin, a_map) with
        | Structure.Stored_placement i, j when i <> j ->
          Alcotest.failf "%s probe %d: linear %d, mapped %d" c.Circuit.name k i j
        | Structure.Fallback, j when j <> -1 ->
          Alcotest.failf "%s probe %d: linear fallback, mapped %d" c.Circuit.name k j
        | Structure.Out_of_domain, j when j <> -2 ->
          Alcotest.failf "%s probe %d: linear out-of-domain, mapped %d" c.Circuit.name
            k j
        | _ -> ());
        if k mod 7 = 0 then
          let r_heap = Structure.Engine.instantiate heap s_heap dims in
          let r_map = Structure.Engine.instantiate mapped s_map dims in
          if not (rects_equal r_heap r_map) then
            Alcotest.failf "%s probe %d: instantiation differs" c.Circuit.name k
      done)

(* [of_string] must parse the writer's bytes identically to a mapped
   load, and the view must report honest size accounting. *)
let test_of_string_agrees c structure =
  let raw = Zcodec.to_string structure in
  check_bool (c.Circuit.name ^ ": magic sniffs") true
    (String.starts_with ~prefix:Zcodec.magic raw);
  let view = Zcodec.of_string ~circuit:c raw in
  check_int (c.Circuit.name ^ ": bytes") (String.length raw) view.Zcodec.bytes;
  check_int
    (c.Circuit.name ^ ": stored count")
    (Array.length (Structure.placements structure))
    view.Zcodec.n_stored;
  let last = List.nth view.Zcodec.sections (List.length view.Zcodec.sections - 1) in
  check_int
    (c.Circuit.name ^ ": sections end at the file end")
    (String.length raw / 8)
    (last.Zcodec.off_words + last.Zcodec.len_words);
  check_bool (c.Circuit.name ^ ": pool dedupes template pieces") true
    (view.Zcodec.n_pool <= view.Zcodec.n_stored + 1)

(* The mapped engine materializes the full heap structure on demand,
   and that structure round-trips through the text codec. *)
let test_materialize_structure c structure =
  let raw = Zcodec.to_string structure in
  let view = Zcodec.of_string ~circuit:c raw in
  let s2 = Structure.Engine.structure view.Zcodec.engine in
  check_int
    (c.Circuit.name ^ ": placement count survives")
    (Structure.n_placements structure)
    (Structure.n_placements s2);
  check_bool (c.Circuit.name ^ ": text round-trip agrees") true
    (Codec.to_string s2 = Codec.to_string structure)

(* Every single-bit flip anywhere in the container must be caught by a
   verified load (or be semantically invisible: bit 63 of a word never
   carries information).  No flip may crash. *)
let test_flips_detected () =
  let _, structure = List.hd (Lazy.force structures) in
  let circuit = Structure.circuit structure in
  let raw = Zcodec.to_string structure in
  let rng = Rng.create ~seed:41 in
  let flips = ref 0 and caught = ref 0 in
  for _ = 1 to 200 do
    let pos = Rng.int rng (String.length raw) in
    let bit = Rng.int rng 8 in
    if not (bit = 7 && pos mod 8 = 7) then begin
      (* skip bit 63 of a word: dropped by the int lens, semantically void *)
      incr flips;
      let b = Bytes.of_string raw in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match Zcodec.of_string ~circuit (Bytes.to_string b) with
      | exception Zcodec.Error (Zcodec.Corrupt _) -> incr caught
      | exception Zcodec.Error (Zcodec.Circuit_mismatch _) ->
        (* a flip inside the stored identity reads as another circuit *)
        incr caught
      | _view -> ()
    end
  done;
  check_int "every informative flip detected" !flips !caught

let test_wrong_circuit_rejected () =
  let all = Lazy.force structures in
  let _, s1 = List.hd all in
  let other =
    List.find (fun c -> c.Circuit.name <> (Structure.circuit s1).Circuit.name)
      Benchmarks.all
  in
  let raw = Zcodec.to_string s1 in
  match Zcodec.of_string ~circuit:other raw with
  | exception Zcodec.Error (Zcodec.Circuit_mismatch _) -> ()
  | exception e -> Alcotest.failf "expected Circuit_mismatch, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "wrong circuit accepted"

let test_load_missing_is_io_error () =
  let c = List.hd Benchmarks.all in
  match Zcodec.load ~circuit:c "/nonexistent/dir/x.mpsz" with
  | exception Zcodec.Error (Zcodec.Io_error _) -> ()
  | exception e -> Alcotest.failf "expected Io_error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "missing file loaded"

(* Salvage: wreck every engine section; the placement records must
   still come back intact. *)
let test_salvage_survives_engine_damage () =
  let _, structure = List.hd (Lazy.force structures) in
  let circuit = Structure.circuit structure in
  let raw = Zcodec.to_string structure in
  let view = Zcodec.of_string ~circuit raw in
  let b = Bytes.of_string raw in
  List.iter
    (fun s ->
      if s.Zcodec.tag <> "POOL" && s.Zcodec.tag <> "PLCT" then
        for wi = s.Zcodec.off_words to s.Zcodec.off_words + s.Zcodec.len_words - 1 do
          Bytes.set_int64_le b (wi * 8) 0x0123_4567_89AB_CDEFL
        done)
    view.Zcodec.sections;
  let damaged = Bytes.to_string b in
  (* strict load refuses *)
  (match Zcodec.of_string ~circuit damaged with
  | exception Zcodec.Error (Zcodec.Corrupt _) -> ()
  | _ -> Alcotest.fail "damaged container loaded strictly");
  (* salvage recovers every record *)
  let path = Filename.temp_file "mps_zsalvage" ".mpsz" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc damaged);
      let w, bytes = Persist.map_words ~path in
      match Zcodec.salvage_parts ~circuit w ~bytes with
      | Error e -> Alcotest.failf "salvage failed: %s" (Zcodec.error_to_string e)
      | Ok r ->
        check_int "all records recovered" view.Zcodec.n_stored
          (List.length r.Zcodec.r_stored);
        check_bool "backup recovered" true (r.Zcodec.r_backup <> None);
        check_bool "crc failure reported" false r.Zcodec.r_crc_ok)

(* The coordinate pool is keyed by content, so a structure read back
   from its text dump packs to the container byte for byte. *)
let test_text_import_packs_identically c structure =
  let imported = Codec.of_string ~circuit:c (Codec.to_string structure) in
  check_bool
    (c.Circuit.name ^ ": container of the re-imported dump is identical")
    true
    (Zcodec.to_string imported = Zcodec.to_string structure)

(* The text codec reads only v2 documents: anything else — a binary
   container, a legacy v1 document, junk — is one clean [Corrupt]
   line, not a parse backtrace. *)
let test_unknown_magic_clean_error () =
  let c, structure = List.hd (Lazy.force structures) in
  let v1 =
    match String.split_on_char '\n' (Codec.to_string structure) with
    | _magic :: _checksum :: payload -> String.concat "\n" ("mps-structure v1" :: payload)
    | _ -> Alcotest.fail "short document"
  in
  List.iter
    (fun (tag, input) ->
      match Codec.of_string ~circuit:c input with
      | exception Codec.Error (Codec.Corrupt { reason; _ }) ->
        check_bool (tag ^ ": reason is one short clean line") true
          ((not (String.contains reason '\n'))
          && String.length reason < 120
          && String.for_all (fun ch -> ch >= ' ' && ch < '\x7f') reason)
      | exception e -> Alcotest.failf "%s: expected Corrupt, got %s" tag (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" tag)
    [
      ("garbage", "\x7fELF\x02\x01\x01\x00 definitely not a structure\xff\xfe");
      ("mpsz container", Zcodec.to_string structure);
      ("v1 document", v1);
    ]

(* Salvage (Repair.salvage_string): what survives of a damaged
   container, rebuilt and audited. *)

let salvage_circuit = Benchmarks.circ01

let salvage_structure =
  lazy (fst (Generator.single_walk ~config:Fixtures.tiny_config salvage_circuit))

let salvage raw =
  match Repair.salvage_string ~circuit:salvage_circuit raw with
  | Ok sv -> sv
  | Error e -> Alcotest.fail (Zcodec.error_to_string e)

(* Every whole-word truncation: the strict parse refuses, and salvage
   never raises — a typed error, or a queryable structure with
   pairwise-disjoint boxes. *)
let test_truncation_at_every_word () =
  let circuit = salvage_circuit in
  let raw = Zcodec.to_string (Lazy.force salvage_structure) in
  let recovered = ref 0 in
  for words = 0 to (String.length raw / 8) - 1 do
    let truncated = String.sub raw 0 (8 * words) in
    check_bool
      (Printf.sprintf "load rejects truncation to %d words" words)
      true
      (try
         ignore (Zcodec.of_string ~circuit truncated);
         false
       with Zcodec.Error _ -> true);
    match Repair.salvage_string ~circuit truncated with
    | Error (Zcodec.Corrupt _) -> ()
    | Error e -> Alcotest.failf "salvage misreported: %s" (Zcodec.error_to_string e)
    | Ok sv ->
      incr recovered;
      let s = sv.Repair.outcome.Repair.structure in
      let stored = Structure.placements s in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j then
                check_bool "salvaged boxes disjoint" false
                  (Dimbox.overlaps a.Stored.box b.Stored.box))
            stored)
        stored;
      let rects = Structure.instantiate s (Dimbox.center (Circuit.dim_bounds circuit)) in
      check_bool "salvaged structure instantiates overlap-free" true
        (Rect.any_overlap rects = None)
  done;
  (* a cut inside the record table keeps the whole records before it *)
  check_bool "some truncations recover a prefix" true (!recovered > 0)

let test_salvage_reports_drops () =
  let s = Lazy.force salvage_structure in
  let raw = Zcodec.to_string s in
  let plct =
    List.find
      (fun x -> x.Zcodec.tag = "PLCT")
      (Zcodec.of_string ~circuit:salvage_circuit raw).Zcodec.sections
  in
  (* cut the record table at 60%: a truncated tail *)
  let cut = plct.Zcodec.off_words + (plct.Zcodec.len_words * 6 / 10) in
  let sv = salvage (String.sub raw 0 (8 * cut)) in
  check_bool "something recovered" true (sv.Repair.recovered > 0);
  check_bool "something dropped" true (sv.Repair.dropped > 0);
  check_int "recovered + dropped = claimed" (Structure.n_placements s)
    (sv.Repair.recovered + sv.Repair.dropped);
  check_bool "backup lost with the tail" false sv.Repair.backup_recovered;
  check_bool "checksum reported bad" false sv.Repair.checksum_ok

let test_salvage_intact_file_recovers_everything () =
  let s = Lazy.force salvage_structure in
  let sv = salvage (Zcodec.to_string s) in
  check_int "all placements recovered" (Structure.n_placements s) sv.Repair.recovered;
  check_int "nothing dropped" 0 sv.Repair.dropped;
  check_bool "backup recovered" true sv.Repair.backup_recovered;
  check_bool "checksum ok" true sv.Repair.checksum_ok

(* The container with its [POOL]/[PLCT] tag words rewritten to the
   retired half-packed tags [POLH]/[PLCH] and the header CRC recomputed:
   an intact header whose table names sections no reader knows. *)
let with_retired_tags raw =
  let b = Bytes.of_string raw in
  let tag_word s = Int64.of_int32 (String.get_int32_le s 0) in
  let header_words = Int64.to_int (Bytes.get_int64_le b 24) in
  for wi = 13 to header_words - 2 do
    let v = Bytes.get_int64_le b (wi * 8) in
    if v = tag_word "POOL" then Bytes.set_int64_le b (wi * 8) (tag_word "POLH");
    if v = tag_word "PLCT" then Bytes.set_int64_le b (wi * 8) (tag_word "PLCH")
  done;
  let crc =
    Persist.crc32 (Bytes.sub_string b 0 (8 * (header_words - 1)))
  in
  Bytes.set_int64_le b (8 * (header_words - 1))
    (Int64.logand (Int64.of_int32 crc) 0xFFFF_FFFFL);
  Bytes.to_string b

let contains_sub sub s =
  let n = String.length sub in
  let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
  loop 0

(* A container the reader does not know — another layout or another
   version — is a typed [Corrupt] naming what it refused, from the
   strict reader and from salvage, never an exception out of either. *)
let check_refused tag ~expect raw =
  let circuit = salvage_circuit in
  let names_it reader = function
    | Zcodec.Corrupt { section; reason } ->
      let msg = section ^ ": " ^ reason in
      check_bool
        (Printf.sprintf "%s: %s error %S names %S" tag reader msg expect)
        true (contains_sub expect msg)
    | e -> Alcotest.failf "%s: %s misreported: %s" tag reader (Zcodec.error_to_string e)
  in
  (match Zcodec.of_string ~circuit raw with
  | exception Zcodec.Error e -> names_it "strict reader" e
  | exception e -> Alcotest.failf "%s: strict reader raised %s" tag (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: strict reader accepted it" tag);
  match Repair.salvage_string ~circuit raw with
  | Error e -> names_it "salvage" e
  | Ok _ -> Alcotest.failf "%s: salvage accepted it" tag
  | exception e -> Alcotest.failf "%s: salvage raised %s" tag (Printexc.to_string e)

let test_retired_layout_refused () =
  let raw = with_retired_tags (Zcodec.to_string (Lazy.force salvage_structure)) in
  check_refused "POLH/PLCH container" ~expect:"POLH" raw

let test_unknown_version_refused () =
  let version = Zcodec.format_version + 1 in
  let b = Bytes.of_string (Zcodec.to_string (Lazy.force salvage_structure)) in
  Bytes.set_int64_le b 8 (Int64.of_int version);
  check_refused
    (Printf.sprintf "version-%d container" version)
    ~expect:(Printf.sprintf "unsupported container version %d" version)
    (Bytes.to_string b)

let suite =
  [
    ("all circuits: mapped engine equals heap engine and oracle on 10k probes",
     `Slow, for_all test_mapped_engine_matches_oracle);
    ("all circuits: of_string agrees with load", `Slow, for_all test_of_string_agrees);
    ("all circuits: materialized structure round-trips", `Slow,
     for_all test_materialize_structure);
    ("random flips are detected, never crash", `Slow, test_flips_detected);
    ("wrong circuit rejected", `Quick, test_wrong_circuit_rejected);
    ("missing file is Io_error", `Quick, test_load_missing_is_io_error);
    ("salvage survives engine-section damage", `Quick, test_salvage_survives_engine_damage);
    ("all circuits: the re-imported text dump packs identically", `Slow,
     for_all test_text_import_packs_identically);
    ("unknown magic fails with one clean line", `Quick, test_unknown_magic_clean_error);
    ("every word truncation: load rejects, salvage degrades", `Quick,
     test_truncation_at_every_word);
    ("salvage reports recovered and dropped counts", `Quick, test_salvage_reports_drops);
    ("salvage of an intact file recovers everything", `Quick,
     test_salvage_intact_file_recovers_everything);
    ("the retired POLH/PLCH layout is refused with a typed error", `Quick,
     test_retired_layout_refused);
    ("a container of another version is refused with a typed error", `Quick,
     test_unknown_version_refused);
  ]
