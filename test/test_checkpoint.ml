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

let walks = base_config.Generator.explorer_restarts
let steps_per_round = walks * base_config.Generator.walk_chunk

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
      check_int "snapshot taken after round 2" (2 * steps_per_round) cp.Checkpoint.step;
      check_int "every walk recorded" walks (Array.length cp.Checkpoint.walks);
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

let test_corrupt_checkpoint_rejected () =
  with_checkpoint_file (fun path ->
      let _ = checkpointed_run path in
      let cp = Checkpoint.load ~circuit ~path in
      let doc = Checkpoint.to_string cp in
      let rejects s =
        try
          ignore (Checkpoint.of_string ~circuit s);
          false
        with Codec.Error _ -> true
      in
      (* flip one payload character: the checkpoint's own checksum
         must catch it *)
      let b = Bytes.of_string doc in
      let i = String.length doc / 2 in
      Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
      check_bool "bit flip rejected" true (rejects (Bytes.to_string b));
      (* truncation at every line boundary is rejected too: a
         checkpoint is whole or refused, never salvaged *)
      let lines = String.split_on_char '\n' doc in
      for keep = 0 to List.length lines - 2 do
        check_bool
          (Printf.sprintf "truncation to %d lines rejected" keep)
          true
          (rejects (String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)))
      done;
      check_bool "garbage rejected" true (rejects "mps-checkpoint v9\nwhat\n");
      (* the pre-v2 layout is refused by its header, with a typed error *)
      let v1 = "mps-checkpoint v1" ^ String.sub doc 17 (String.length doc - 17) in
      check_bool "v1 checkpoint refused as a bad header" true
        (try
           ignore (Checkpoint.of_string ~circuit v1);
           false
         with Codec.Error (Codec.Corrupt { lineno = 1; _ }) -> true);
      (* wrong circuit is reported as a mismatch, not corruption *)
      check_bool "wrong circuit rejected" true
        (try
           ignore (Checkpoint.of_string ~circuit:Benchmarks.circ02 doc);
           false
         with Codec.Error (Codec.Circuit_mismatch _) -> true))

(* Rewrite one payload line of a checkpoint and recompute its
   checksum, so only the parser stands between the edit and the
   generator. *)
let reseal doc ~prefix ~by =
  let header, payload =
    match String.split_on_char '\n' doc with
    | magic :: _checksum :: rest -> (magic, rest)
    | _ -> Alcotest.fail "short checkpoint"
  in
  let payload =
    String.concat "\n"
      (List.map (fun l -> if String.starts_with ~prefix l then by else l) payload)
  in
  Printf.sprintf "%s\nchecksum %s\n%s" header (Persist.crc32_hex payload) payload

(* A checksum-valid checkpoint whose walk count claims more records
   than the file holds is damage, refused with a typed error — never an
   allocation of that size. *)
let test_huge_walk_count_rejected () =
  with_checkpoint_file (fun path ->
      let _ = checkpointed_run path in
      let doc = Checkpoint.to_string (Checkpoint.load ~circuit ~path) in
      List.iter
        (fun count ->
          let forged = reseal doc ~prefix:"walks " ~by:(Printf.sprintf "walks %d 4" count) in
          check_bool
            (Printf.sprintf "walk count %d refused as corrupt" count)
            true
            (try
               ignore (Checkpoint.of_string ~circuit forged);
               false
             with Codec.Error (Codec.Corrupt _) -> true))
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
      check_int "stopped right after the first round" steps_per_round cp.Checkpoint.step;
      let resumed, rstats = Generator.resume ~config:base_config cp in
      let straight, _ = Generator.generate ~config:base_config circuit in
      check_bool "deadline + resume equals the uninterrupted run" true
        (Codec.to_string resumed = Codec.to_string straight);
      check_bool "resumed run ran to its budget" true
        (not rstats.Generator.deadline_hit))

let test_no_deadline_runs_to_budget () =
  let _, stats = Generator.generate ~config:base_config circuit in
  check_bool "no spurious deadline flag" true (not stats.Generator.deadline_hit);
  check_int "full iteration budget on every walk"
    (walks * base_config.Generator.explorer_iterations)
    stats.Generator.explorer_steps

let suite =
  [
    ("checkpoint file round-trips", `Quick, test_checkpoint_file_roundtrip);
    ("kill-resume determinism: resumed run equals straight run", `Quick,
     test_resume_matches_straight_run);
    ("corrupt or truncated checkpoint rejected", `Quick, test_corrupt_checkpoint_rejected);
    ("huge walk count rejected as corrupt", `Quick, test_huge_walk_count_rejected);
    ("zero deadline stops gracefully and resumes identically", `Quick,
     test_deadline_stops_gracefully_and_resumes);
    ("no deadline: full budget, no flag", `Quick, test_no_deadline_runs_to_budget);
  ]
