(* Tests for crash-safe generation: checkpoint snapshots, integrity
   rejection, the kill-resume determinism property, and graceful
   wall-clock deadline stops. *)

open Mps_netlist
open Mps_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let circuit = Benchmarks.circ01

(* Small deterministic budget that always runs its full 9 steps per
   walk: the coverage target is unreachable and the placement cap is
   far away, so every run stops on the iteration budget alone.  With
   the default 4 walks and 4-step rounds that is three rounds: 16, 32,
   then 36 merged steps. *)
let base_config =
  {
    Generator.fast_config with
    Generator.explorer_iterations = 9;
    bdio = { Bdio.default_config with Bdio.iterations = 40 };
    coverage_target = 2.0;
    max_placements = 1000;
    backup_iterations = 150;
    refine_iterations = 0;
  }

let with_checkpoint_file f =
  let path = Filename.temp_file "mps_ckpt" ".mpsc" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* The walk count and the steps each walk advances per round are
   generator constants that every checkpoint records: read them from
   one. *)
let walks (cp : Checkpoint.t) = Array.length cp.Checkpoint.walks
let steps_per_round cp = walks cp * cp.Checkpoint.chunk

(* Run with a checkpoint every second round; the last snapshot (round
   2 of 3) is left on disk for the resume tests. *)
let checkpointed_run path =
  let config =
    { base_config with Generator.checkpoint_every = 2; checkpoint_path = Some path }
  in
  Generator.generate ~config circuit

let test_checkpoint_file_roundtrip () =
  with_checkpoint_file (fun path ->
      let _ = checkpointed_run path in
      check_bool "checkpoint file left behind" true (Sys.file_exists path);
      let cp = Checkpoint.load ~circuit ~path in
      check_int "snapshot taken after round 2" (2 * steps_per_round cp)
        cp.Checkpoint.step;
      check_bool "every walk advanced two rounds" true
        (Array.for_all
           (fun w -> w.Checkpoint.w_step = 2 * cp.Checkpoint.chunk)
           cp.Checkpoint.walks);
      (* save → load → to_string is a fixpoint *)
      let path2 = Filename.temp_file "mps_ckpt2" ".mpsc" in
      Checkpoint.save cp ~path:path2;
      let cp' = Checkpoint.load ~circuit ~path:path2 in
      Sys.remove path2;
      check_bool "checkpoint round-trips bit-exactly" true
        (Checkpoint.to_string cp = Checkpoint.to_string cp');
      check_int "step survives" cp.Checkpoint.step cp'.Checkpoint.step;
      check_int "dropped survives" cp.Checkpoint.dropped cp'.Checkpoint.dropped;
      check_bool "structure survives" true
        (Codec.to_string cp.Checkpoint.structure
        = Codec.to_string cp'.Checkpoint.structure))

(* The acceptance property: a run checkpointed and resumed at a round
   boundary yields the same stored-placement set as the uninterrupted
   run with the same seed.  The resumed walks replay round 3 from the
   snapshot; both documents must match the straight run byte for
   byte. *)
let test_resume_matches_straight_run () =
  with_checkpoint_file (fun path ->
      let interrupted, stats_a = checkpointed_run path in
      let cp = Checkpoint.load ~circuit ~path in
      let resumed, stats_b = Generator.resume ~config:base_config cp in
      let straight, stats_c = Generator.generate ~config:base_config circuit in
      check_bool "checkpointing does not perturb the walk" true
        (Codec.to_string interrupted = Codec.to_string straight);
      check_bool "resumed run equals the uninterrupted run" true
        (Codec.to_string resumed = Codec.to_string straight);
      check_int "same total steps" stats_c.Generator.explorer_steps
        stats_b.Generator.explorer_steps;
      check_int "same stored count" stats_c.Generator.placements_stored
        stats_b.Generator.placements_stored;
      check_int "same drop count" stats_c.Generator.candidates_dropped
        stats_b.Generator.candidates_dropped;
      Alcotest.(check (float 0.0)) "same coverage" stats_c.Generator.coverage
        stats_b.Generator.coverage;
      ignore stats_a)

let rejects s =
  try
    ignore (Checkpoint.of_string ~circuit s);
    false
  with Zcodec.Error _ -> true

let test_corrupt_checkpoint_rejected () =
  with_checkpoint_file (fun path ->
      let _ = checkpointed_run path in
      let cp = Checkpoint.load ~circuit ~path in
      let raw = Checkpoint.to_string cp in
      (* flip one bit in the middle: a section CRC must catch it *)
      let b = Bytes.of_string raw in
      let i = String.length raw / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      check_bool "bit flip rejected" true (rejects (Bytes.to_string b));
      (* truncation at every byte is rejected too: a checkpoint is
         whole or refused, never salvaged *)
      for keep = 0 to String.length raw - 1 do
        if not (rejects (String.sub raw 0 keep)) then
          Alcotest.failf "truncation to %d bytes accepted" keep
      done;
      check_bool "garbage rejected" true (rejects "MPSZ0001what");
      (* the text checkpoints of earlier versions are refused by their
         magic, with a typed error *)
      check_bool "text checkpoint refused as a bad header" true
        (try
           ignore (Checkpoint.of_string ~circuit "mps-checkpoint v2\nchecksum 0\nstep 0\n");
           false
         with Zcodec.Error (Zcodec.Corrupt { section = "header"; _ }) -> true);
      (* a plain structure container carries no generator state *)
      check_bool "plain container refused" true
        (rejects (Zcodec.to_string cp.Checkpoint.structure));
      (* wrong circuit is reported as a mismatch, not corruption *)
      check_bool "wrong circuit rejected" true
        (try
           ignore (Checkpoint.of_string ~circuit:Benchmarks.circ02 raw);
           false
         with Zcodec.Error (Zcodec.Circuit_mismatch _) -> true))

(* Seeded damage anywhere in the file: every decode either refuses with
   a typed error or returns the very checkpoint that was saved (a flip
   of a word's bit 63, which the container's int lens drops, changes
   nothing it reads). *)
let test_seeded_damage_typed_or_identical () =
  with_checkpoint_file (fun path ->
      let _ = checkpointed_run path in
      let raw = Checkpoint.to_string (Checkpoint.load ~circuit ~path) in
      let decode tag s =
        match Checkpoint.of_string ~circuit s with
        | cp ->
          check_bool (tag ^ ": accepted damage decodes to the saved checkpoint") true
            (Checkpoint.to_string cp = raw)
        | exception Zcodec.Error _ -> ()
        | exception e -> Alcotest.failf "%s: %s escaped" tag (Printexc.to_string e)
      in
      for seed = 1 to 200 do
        decode (Printf.sprintf "flip seed %d" seed)
          (Mps_fault.Fault.flip_bits ~seed ~flips:(1 + (seed mod 5)) raw);
        let cut = Mps_rng.Rng.int (Mps_rng.Rng.create ~seed) (String.length raw) in
        decode (Printf.sprintf "cut seed %d" seed) (String.sub raw 0 cut)
      done)

(* Rewrite word [word] of the generator-state section and recompute
   its CRC and the header's, so only the decoder stands between the
   edit and the generator.  [GENS] is the last table entry, so its CRC
   word sits just before the header CRC. *)
let reseal raw ~word ~value =
  let gens =
    List.find
      (fun s -> s.Zcodec.tag = "GENS")
      (Zcodec.of_string ~circuit raw).Zcodec.sections
  in
  let b = Bytes.of_string raw in
  let set_word k v = Bytes.set_int64_le b (8 * k) (Int64.of_int v) in
  let crc ~pos ~len =
    Int32.to_int (Persist.crc32 (Bytes.sub_string b (8 * pos) (8 * len))) land 0xFFFF_FFFF
  in
  set_word (gens.Zcodec.off_words + word) value;
  let header_words = Int64.to_int (Bytes.get_int64_le b 24) in
  set_word (header_words - 2) (crc ~pos:gens.Zcodec.off_words ~len:gens.Zcodec.len_words);
  set_word (header_words - 1) (crc ~pos:0 ~len:(header_words - 1));
  Bytes.to_string b

(* A CRC-valid checkpoint whose walk count claims more records than the
   section holds is damage, refused with a typed error — never an
   allocation of that size. *)
let test_huge_walk_count_rejected () =
  with_checkpoint_file (fun path ->
      let _ = checkpointed_run path in
      let cp = Checkpoint.load ~circuit ~path in
      let raw = Checkpoint.to_string cp in
      check_bool "resealing alone keeps the checkpoint valid" false
        (rejects (reseal raw ~word:3 ~value:(walks cp)));
      List.iter
        (fun count ->
          check_bool
            (Printf.sprintf "walk count %d refused as corrupt" count)
            true
            (try
               ignore (Checkpoint.of_string ~circuit (reseal raw ~word:3 ~value:count));
               false
             with Zcodec.Error (Zcodec.Corrupt _) -> true))
        [ max_int; 100_000_000_000_000 ])

(* A zero deadline stops after the first round: the run still returns
   a valid structure, flags the early stop, and force-writes a final
   checkpoint — from which a resume finishes the job identically to a
   never-interrupted run. *)
let test_deadline_stops_gracefully_and_resumes () =
  with_checkpoint_file (fun path ->
      let config =
        {
          base_config with
          Generator.max_seconds = Some 0.0;
          checkpoint_path = Some path;
          checkpoint_every = 5;
        }
      in
      let s, stats = Generator.generate ~config circuit in
      check_bool "deadline flagged" true stats.Generator.deadline_hit;
      check_bool "interim structure still valid" true (Structure.n_placements s >= 1);
      check_bool "final checkpoint forced" true (Sys.file_exists path);
      let cp = Checkpoint.load ~circuit ~path in
      check_int "stopped right after the first round" (steps_per_round cp)
        cp.Checkpoint.step;
      let resumed, rstats = Generator.resume ~config:base_config cp in
      let straight, _ = Generator.generate ~config:base_config circuit in
      check_bool "deadline + resume equals the uninterrupted run" true
        (Codec.to_string resumed = Codec.to_string straight);
      check_bool "resumed run ran to its budget" true
        (not rstats.Generator.deadline_hit))

let test_no_deadline_runs_to_budget () =
  with_checkpoint_file (fun path ->
      let _, stats = checkpointed_run path in
      let cp = Checkpoint.load ~circuit ~path in
      check_bool "no spurious deadline flag" true (not stats.Generator.deadline_hit);
      check_int "full iteration budget on every walk"
        (walks cp * base_config.Generator.explorer_iterations)
        stats.Generator.explorer_steps)

let suite =
  [
    ("checkpoint file round-trips", `Quick, test_checkpoint_file_roundtrip);
    ("kill-resume determinism: resumed run equals straight run", `Quick,
     test_resume_matches_straight_run);
    ("corrupt or truncated checkpoint rejected", `Quick, test_corrupt_checkpoint_rejected);
    ("huge walk count rejected as corrupt", `Quick, test_huge_walk_count_rejected);
    ("seeded damage: typed error or the identical checkpoint", `Quick,
     test_seeded_damage_typed_or_identical);
    ("zero deadline stops gracefully and resumes identically", `Quick,
     test_deadline_stops_gracefully_and_resumes);
    ("no deadline: full budget, no flag", `Quick, test_no_deadline_runs_to_budget);
  ]
