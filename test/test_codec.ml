(* Tests for the v2 text document: round-trips, integrity checking
   (version + CRC-32) and atomic save.  Salvage of damaged structures
   reads only the container; its tests live in test_zcodec.ml. *)

open Mps_geometry
open Mps_netlist
open Mps_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let circuit = Benchmarks.circ01

let structure =
  lazy (fst (Generator.single_walk ~config:Generator.fast_config circuit))

let is_corrupt = function Codec.Error (Codec.Corrupt _) -> true | _ -> false

let rejects_with pred doc =
  try
    ignore (Codec.of_string ~circuit doc);
    false
  with e -> pred e

let test_roundtrip_string () =
  let s = Lazy.force structure in
  let doc = Codec.to_string s in
  let s' = Codec.of_string ~circuit doc in
  check_int "placement count survives" (Structure.n_placements s) (Structure.n_placements s');
  Alcotest.(check (float 1e-12)) "coverage survives" (Structure.coverage s) (Structure.coverage s');
  check_bool "die survives" true (Structure.die s = Structure.die s');
  (* stored placements identical field by field *)
  Array.iter2
    (fun a b ->
      check_bool "boxes equal" true (Dimbox.equal a.Stored.box b.Stored.box);
      check_bool "expansions equal" true (Dimbox.equal a.Stored.expansion b.Stored.expansion);
      check_bool "coords equal" true
        (Mps_placement.Placement.equal a.Stored.placement b.Stored.placement);
      check_bool "best dims equal" true (Dims.equal a.Stored.best_dims b.Stored.best_dims);
      Alcotest.(check (float 0.0)) "avg cost exact" a.Stored.avg_cost b.Stored.avg_cost;
      Alcotest.(check (float 0.0)) "best cost exact" a.Stored.best_cost b.Stored.best_cost)
    (Structure.placements s) (Structure.placements s');
  let ba = Structure.backup s and bb = Structure.backup s' in
  check_bool "backup survives" true
    (Mps_placement.Placement.equal ba.Stored.placement bb.Stored.placement)

let test_roundtrip_queries_agree () =
  let s = Lazy.force structure in
  let s' = Codec.of_string ~circuit (Codec.to_string s) in
  let probes = Mps_experiments.Experiments.probe_dims ~seed:5 ~n:300 s in
  Array.iter
    (fun dims ->
      let a1, _ = Structure.query s dims and a2, _ = Structure.query s' dims in
      check_bool "same answer" true (a1 = a2);
      let r1 = Structure.instantiate s dims and r2 = Structure.instantiate s' dims in
      check_bool "same floorplan" true (Array.for_all2 Rect.equal r1 r2))
    probes

let test_roundtrip_file () =
  let s = Lazy.force structure in
  let path = Filename.temp_file "mps_codec" ".mps" in
  Codec.save s ~path;
  let s' = Codec.load ~circuit ~path in
  Sys.remove path;
  check_int "count" (Structure.n_placements s) (Structure.n_placements s')

(* to_string → of_string → to_string is a fixpoint, across all nine
   Table 1 benchmark circuits. *)
let test_fixpoint_all_benchmarks () =
  check_int "Table 1 has nine circuits" 9 (List.length Benchmarks.all);
  List.iter
    (fun c ->
      let s, _ = Generator.single_walk ~config:Fixtures.minimal_config c in
      let doc = Codec.to_string s in
      let doc' = Codec.to_string (Codec.of_string ~circuit:c doc) in
      check_bool (c.Circuit.name ^ ": serialization fixpoint") true (doc = doc'))
    Benchmarks.all

let test_save_is_atomic_replace () =
  let s = Lazy.force structure in
  let dir = Filename.temp_file "mps_codec_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "structure.mps" in
  Codec.save s ~path;
  (* overwrite in place: the reload stays valid and no temp litter
     survives a successful save *)
  Codec.save s ~path;
  check_int "reload ok" (Structure.n_placements s)
    (Structure.n_placements (Codec.load ~circuit ~path));
  check_bool "no stray temp files" true (Sys.readdir dir = [| "structure.mps" |]);
  Sys.remove path;
  Sys.rmdir dir

let test_save_unwritable_is_io_error () =
  let s = Lazy.force structure in
  check_bool "Io_error on unwritable dir" true
    (try
       Codec.save s ~path:"/nonexistent-dir-mps/structure.mps";
       false
     with Codec.Error (Codec.Io_error _) -> true)

let test_load_missing_is_io_error () =
  check_bool "Io_error on missing file" true
    (try
       ignore (Codec.load ~circuit ~path:"/tmp/no-such-mps-file.mps");
       false
     with Codec.Error (Codec.Io_error _) -> true)

let test_wrong_circuit_rejected () =
  let s = Lazy.force structure in
  let doc = Codec.to_string s in
  check_bool "rejects another circuit" true
    (try
       ignore (Codec.of_string ~circuit:Benchmarks.circ02 doc);
       false
     with Codec.Error (Codec.Circuit_mismatch _) -> true)

let test_bad_header () =
  check_bool "rejects garbage" true (rejects_with is_corrupt "not a structure\n")

let test_checksum_detects_any_flip () =
  let s = Lazy.force structure in
  let doc = Codec.to_string s in
  (* flip one payload character in several places; every flip must be
     caught by the checksum (as Corrupt at line 2) before parsing *)
  let header_len =
    (* start of payload: after the two header lines *)
    String.index_from doc (String.index doc '\n' + 1) '\n' + 1
  in
  List.iter
    (fun pos ->
      let i = header_len + (pos mod (String.length doc - header_len)) in
      let b = Bytes.of_string doc in
      Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
      let flipped = Bytes.to_string b in
      if flipped <> doc then
        check_bool
          (Printf.sprintf "flip at %d rejected" i)
          true
          (rejects_with
             (function
               | Codec.Error (Codec.Corrupt { lineno; _ }) -> lineno = 2
               | _ -> false)
             flipped))
    [ 0; 17; 101; 999; 4242; 100_003 ]

(* A checksum-valid document whose placement count claims more
   records than the file holds is damage, refused with a typed error —
   never an allocation of that size. *)
let test_huge_placement_count () =
  let lines = String.split_on_char '\n' (Codec.to_string (Lazy.force structure)) in
  List.iter
    (fun count ->
      let payload =
        List.filteri (fun i _ -> i >= 2) lines
        |> List.map (fun l ->
               if String.starts_with ~prefix:"placements " l then
                 Printf.sprintf "placements %d" count
               else l)
        |> String.concat "\n"
      in
      let forged =
        Printf.sprintf "mps-structure v2\nchecksum %s\n%s" (Persist.crc32_hex payload)
          payload
      in
      check_bool
        (Printf.sprintf "placement count %d refused as corrupt" count)
        true (rejects_with is_corrupt forged))
    [ max_int; 100_000_000_000_000 ]

let test_corrupted_interval () =
  let s = Lazy.force structure in
  let doc = Codec.to_string s in
  (* flip a box line into an inverted interval — and refresh the
     checksum so the structural validation (not the checksum) trips *)
  let lines = String.split_on_char '\n' (Codec.to_string s) in
  let payload_lines =
    List.filteri (fun i _ -> i >= 2) lines
    |> List.map (fun l ->
           if String.length l > 6 && String.sub l 0 6 = "box.w " then "box.w 9 1" else l)
  in
  let payload = String.concat "\n" payload_lines in
  let forged =
    Printf.sprintf "mps-structure v2\nchecksum %s\n%s"
      (Mps_core.Persist.crc32_hex payload)
      payload
  in
  ignore doc;
  check_bool "rejects inverted interval" true (rejects_with is_corrupt forged)

(* Integrity: Codec.load must reject EVERY single-line truncation of a
   saved file with a typed error. *)
let test_truncation_at_every_line () =
  let s, _ = Generator.single_walk ~config:Fixtures.minimal_config circuit in
  let lines = String.split_on_char '\n' (Codec.to_string s) in
  let path = Filename.temp_file "mps_trunc" ".mps" in
  for keep = 0 to List.length lines - 2 do
    Persist.atomic_write ~path (String.concat "\n" (List.filteri (fun i _ -> i < keep) lines));
    check_bool
      (Printf.sprintf "load rejects truncation to %d lines" keep)
      true
      (try
         ignore (Codec.load ~circuit ~path);
         false
       with Codec.Error _ -> true)
  done;
  Sys.remove path

let test_current_format_is_versioned_and_checksummed () =
  let s = Lazy.force structure in
  let doc = Codec.to_string s in
  let lines = String.split_on_char '\n' doc in
  check_bool "first line carries the version" true
    (List.nth lines 0 = "mps-structure v2");
  check_bool "second line carries the checksum" true
    (String.length (List.nth lines 1) = String.length "checksum " + 8
    && String.sub (List.nth lines 1) 0 9 = "checksum ")

let suite =
  [
    ("current format is versioned and checksummed", `Quick,
     test_current_format_is_versioned_and_checksummed);
    ("round-trip via string", `Quick, test_roundtrip_string);
    ("round-trip answers identical queries", `Quick, test_roundtrip_queries_agree);
    ("round-trip via file", `Quick, test_roundtrip_file);
    ("serialization fixpoint on all nine benchmarks", `Slow, test_fixpoint_all_benchmarks);
    ("save atomically replaces", `Quick, test_save_is_atomic_replace);
    ("save into unwritable dir is Io_error", `Quick, test_save_unwritable_is_io_error);
    ("load of missing file is Io_error", `Quick, test_load_missing_is_io_error);
    ("wrong circuit rejected", `Quick, test_wrong_circuit_rejected);
    ("garbage header rejected", `Quick, test_bad_header);
    ("checksum catches single-character flips", `Quick, test_checksum_detects_any_flip);
    ("corrupted interval rejected", `Quick, test_corrupted_interval);
    ("huge placement count rejected as corrupt", `Quick, test_huge_placement_count);
    ("every single-line truncation: load rejects", `Quick, test_truncation_at_every_line);
  ]
