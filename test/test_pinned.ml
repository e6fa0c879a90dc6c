(* Pinned artifacts: the benchmark24 quick- and full-budget structures,
   as `mpsgen generate`/`instantiate`, the sizing-loop benchmark and the
   bench harness build them, the quick structure the experiments'
   single walk builds, and the quick structures of every Table 1
   circuit from both explorers, must
   serialize to the same bytes and compile to the same query plan as
   the revisions those pins were taken from.  A change that moves either
   value changes what every saved structure and MPSZ container holds,
   so it has to update the pins on purpose. *)

open Mps_netlist
open Mps_core
module E = Mps_experiments.Experiments

let generate budget ~jobs =
  let circuit = Benchmarks.benchmark24 in
  fst (Generator.generate ~config:(E.generator_config budget circuit) ~jobs circuit)

let structure = lazy (generate E.Quick ~jobs:1)

(* The Full budget at the host's default job count, as the sizing-loop
   benchmark caches it; generation is byte-identical at any job
   count. *)
let full = lazy (generate E.Full ~jobs:(Mps_parallel.Pool.default_jobs ()))

(* MD5 over every field of the flat plan: scalars, then each vector's
   length and words, in declaration order. *)
let plan_digest structure =
  let f = Structure.Engine.flatten (Structure.Engine.create structure) in
  let buf = Buffer.create 4096 in
  let word v = Buffer.add_int64_le buf (Int64.of_int v) in
  let vector (v : Structure.Engine.ints) =
    word (Bigarray.Array1.dim v);
    for i = 0 to Bigarray.Array1.dim v - 1 do
      word v.{i}
    done
  in
  let open Structure.Engine in
  word f.f_capacity;
  word f.f_words_per_set;
  word f.f_skipped_rows;
  List.iter vector
    [
      f.f_row_axis;
      f.f_row_off;
      f.f_lows;
      f.f_highs;
      f.f_set_words;
      f.f_dom_lo;
      f.f_dom_hi;
      f.f_box_lo;
      f.f_box_hi;
      f.f_box_in_domain;
    ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_structure_hash () =
  Alcotest.(check string)
    "benchmark24 quick structure hash" "5a8a8386"
    (Persist.crc32_hex (Codec.to_string (Lazy.force structure)))

let test_plan_digest () =
  Alcotest.(check string)
    "benchmark24 quick plan digest" "4f46199c1234bb494ca1a84a4a450fea"
    (plan_digest (Lazy.force structure))

(* The experiments' explorer: one walk on one stream.  Every figure in
   EXPERIMENTS.md was measured on structures it builds. *)
let test_single_walk_hash () =
  let circuit = Benchmarks.benchmark24 in
  Alcotest.(check string)
    "benchmark24 quick single-walk structure hash" "65a491e6"
    (Persist.crc32_hex
       (Codec.to_string
          (fst (Generator.single_walk ~config:(E.generator_config E.Quick circuit) circuit))))

let test_full_hash () =
  Alcotest.(check string)
    "benchmark24 full structure hash" "b997905b"
    (Persist.crc32_hex (Codec.to_string (Lazy.force full)))

(* The MPSZ container bytes themselves, as [mpsgen generate] writes
   them: MD5 of [Zcodec.to_string], so a writer change that keeps the
   text dump but moves a container byte (a section CRC, the header,
   the record layout) fails here. *)
let container_digest structure = Digest.to_hex (Digest.string (Zcodec.to_string structure))

let test_quick_container () =
  Alcotest.(check string)
    "benchmark24 quick container digest" "029bfd619b0bae4e9560b344e647a408"
    (container_digest (Lazy.force structure))

let test_full_container () =
  Alcotest.(check string)
    "benchmark24 full container digest" "ce9a216b17b7b76e5d8269cb33b5976a"
    (container_digest (Lazy.force full))

let test_full_plan_digest () =
  Alcotest.(check string)
    "benchmark24 full plan digest" "f0ce124c5729f1228ca9c2b707bf5a02"
    (plan_digest (Lazy.force full))

(* Quick-budget structures of every Table 1 circuit, from both stream
   schemes: [generate] (lockstep walks) and [single_walk] (the
   experiments' explorer).  A kernel change that claims to be
   byte-identical has to keep all eighteen. *)
let quick_pins =
  [
    ("circ01", "69337a10", "355b1e61");
    ("circ02", "66900452", "967f2f68");
    ("circ06", "846c84a5", "7fe11e6e");
    ("TwoStage Opamp", "9e325d53", "34a2d000");
    ("SingleEnded Opamp", "b796b980", "2f174e3b");
    ("Mixer", "e559359e", "00fa310c");
    ("circ08", "235bf770", "458ee989");
    ("tso-cascode", "85470fe8", "9c6204f5");
    ("benchmark24", "5a8a8386", "65a491e6");
  ]

let quick_pin_cases =
  List.concat_map
    (fun (name, generate_hash, single_walk_hash) ->
      let circuit = Benchmarks.by_name name in
      let config = E.generator_config E.Quick circuit in
      let case label want build =
        Alcotest.test_case
          (Printf.sprintf "%s quick %s: structure hash is pinned" name label)
          `Quick (fun () ->
            Alcotest.(check string)
              (Printf.sprintf "%s quick %s hash" name label)
              want
              (Persist.crc32_hex (Codec.to_string (fst (build ())))))
      in
      [
        case "generate" generate_hash (fun () ->
            Generator.generate ~config ~jobs:1 circuit);
        case "single walk" single_walk_hash (fun () ->
            Generator.single_walk ~config circuit);
      ])
    quick_pins

let suite =
  [
    Alcotest.test_case "benchmark24 quick: structure hash is pinned" `Quick
      test_structure_hash;
    Alcotest.test_case "benchmark24 quick: compiled plan is pinned" `Quick
      test_plan_digest;
    Alcotest.test_case "benchmark24 full: structure hash is pinned" `Quick test_full_hash;
    Alcotest.test_case "benchmark24 quick single walk: structure hash is pinned" `Quick
      test_single_walk_hash;
    Alcotest.test_case "benchmark24 full: compiled plan is pinned" `Quick
      test_full_plan_digest;
  ]
  @ quick_pin_cases
  @ [
      Alcotest.test_case "benchmark24 quick: container bytes are pinned" `Quick
        test_quick_container;
      Alcotest.test_case "benchmark24 full: container bytes are pinned" `Quick
        test_full_container;
    ]
