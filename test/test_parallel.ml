(* Tests for the domain pool and the parallel generation paths: pool
   results arrive in task order with deterministic failures, generated
   structures are bit-identical at any job count — including across a
   kill/resume — and pooled audits/repairs reproduce the sequential
   outcome exactly. *)

open Mps_netlist
open Mps_core
module Pool = Mps_parallel.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* pool basics *)

let square ~worker:_ i = i * i

let test_map_order () =
  let tasks = Array.init 97 Fun.id in
  let expected = Array.map (fun i -> i * i) tasks in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_bool
            (Printf.sprintf "map with %d jobs preserves task order" jobs)
            true
            (Pool.map pool square tasks = expected)))
    [ 1; 2; 3; 4 ]

let test_map_exception_lowest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map pool
          (fun ~worker:_ i -> if i >= 5 then failwith (string_of_int i) else i)
          (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Failure msg ->
        check_bool "lowest failing task index re-raised" true (msg = "5"))

(* A failed batch leaves nothing behind: the next batch on the same
   pool runs every task and raises nothing. *)
let test_pool_reusable_after_failure () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (match Pool.map pool (fun ~worker:_ _ -> failwith "boom") (Array.make 9 ()) with
          | _ -> Alcotest.fail "expected the batch to raise"
          | exception Failure _ -> ());
          let tasks = Array.init 33 Fun.id in
          check_bool
            (Printf.sprintf "jobs=%d batch after a failure completes in order" jobs)
            true
            (Pool.map pool square tasks = Array.map (fun i -> i * i) tasks)))
    [ 1; 3 ]

let test_pool_misuse_rejected () =
  check_bool "jobs = 0 rejected" true
    (try
       ignore (Pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true);
  check_bool "default_jobs at least 1" true (Pool.default_jobs () >= 1);
  (* shutdown is idempotent, and a shut-down pool refuses work *)
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_bool "use after shutdown rejected" true
    (try
       ignore (Pool.map pool square [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* map: at any job count results arrive in task order, and every task
   sees a worker slot inside [0, jobs). *)
let test_map_order_and_slots () =
  let n = 101 in
  let tasks = Array.init n Fun.id in
  let expected = Array.map (fun i -> 3 * i) tasks in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let slots = Array.make n (-1) in
          let got =
            Pool.map pool
              (fun ~worker i ->
                slots.(i) <- worker;
                3 * i)
              tasks
          in
          check_bool (Printf.sprintf "jobs=%d results in task order" jobs) true (got = expected);
          check_bool
            (Printf.sprintf "jobs=%d worker slots in range" jobs)
            true
            (Array.for_all (fun w -> w >= 0 && w < jobs) slots)))
    [ 1; 2; 3 ]

(* Scheduler counters: every task is accounted to exactly one worker,
   every worker joins every batch, and reset_stats zeroes the lot. *)
let test_pool_stats_accounting () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Pool.reset_stats pool;
      let n = 57 in
      ignore (Pool.map pool square (Array.init n Fun.id));
      ignore (Pool.map pool square (Array.init 2 Fun.id));
      let stats = pool |> Pool.stats in
      let total_tasks = Array.fold_left (fun acc s -> acc + s.Pool.tasks) 0 stats in
      check_bool "tasks across workers sum to the batch sizes" true (total_tasks = n + 2);
      check_bool "every worker joined both batches" true
        (Array.for_all (fun s -> s.Pool.batches = 2) stats);
      check_bool "busy time is non-negative" true
        (Array.for_all (fun s -> s.Pool.busy_seconds >= 0.0) stats);
      Pool.reset_stats pool;
      check_bool "reset_stats zeroes every counter" true
        (Array.for_all
           (fun s ->
             s.Pool.tasks = 0 && s.Pool.steals = 0 && s.Pool.batches = 0
             && s.Pool.minor_words = 0.0 && s.Pool.busy_seconds = 0.0)
           (Pool.stats pool)))

(* A blocked task never holds back the rest of its batch: task 0 spins
   until the last task has run, so the batch finishes only if the other
   workers drain every other task while task 0's worker is stuck. *)
let test_blocked_task_does_not_stall_batch () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let n = 64 in
          let last_ran = Atomic.make false in
          let f ~worker:_ i =
            if i = n - 1 then Atomic.set last_ran true
            else if i = 0 then
              while not (Atomic.get last_ran) do
                Domain.cpu_relax ()
              done;
            i * 7
          in
          let tasks = Array.init n Fun.id in
          check_bool
            (Printf.sprintf "jobs=%d batch finishes in task order" jobs)
            true
            (Pool.map pool f tasks = Array.map (fun i -> i * 7) tasks)))
    [ 2; 3 ]

(* default_jobs is the host's recommended domain count, capped at 8
   and at least 1 — exact on any machine. *)
let test_default_jobs_cap () =
  check_int "min(8, recommended domains), at least 1"
    (max 1 (min 8 (Domain.recommended_domain_count ())))
    (Pool.default_jobs ())

(* The annealers' move-draw path must stay allocation-free: on OCaml 5
   every minor collection is a stop-the-world across all domains, so a
   single boxed float per move would serialize the whole pool.  The
   Move_lut draw / draw_shift / clamp path is exercised 100k times and
   the per-draw minor-heap cost asserted at zero (the tiny constant
   slack absorbs the counter reads' own boxing). *)
let test_move_lut_draws_do_not_allocate () =
  let module Move_lut = Mps_anneal.Move_lut in
  let module Rng = Mps_rng.Rng in
  let lut = Move_lut.make ~n:16 ~lo:(fun i -> i) ~hi:(fun i -> 3 * i + 7) in
  let rng = Rng.create ~seed:11 in
  let sink = ref 0 in
  let exercise iters =
    for i = 0 to iters - 1 do
      let a = i land 15 in
      sink := !sink + Move_lut.draw lut rng a;
      sink := !sink + Move_lut.draw_shift lut rng a ~cur:(i land 31) ~max_shift:4;
      sink := !sink + Move_lut.clamp lut a (i * 7)
    done
  in
  exercise 1000 (* warm-up: code paths compiled, rng state touched *);
  let iters = 100_000 in
  let before = Gc.minor_words () in
  exercise iters;
  let delta = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  check_bool
    (Printf.sprintf "move draws allocated %.0f minor words over %dk draws" delta
       (3 * iters / 1000))
    true
    (delta < 256.0)

(* The generation kernels' allocation, pinned: each run's fixed cost
   (results, tables, the box check) cancels in the difference between
   a long and a short run, leaving the words one more iteration costs.
   Measured on a benchmark24 placement through a warm arena, as a pool
   worker runs them. *)
module Placement = Mps_placement.Placement

let bench24_placement () =
  let c = Benchmarks.benchmark24 in
  let die_w, die_h = Circuit.default_die c in
  (c, Placement.random (Mps_rng.Rng.create ~seed:3) c ~die_w ~die_h)

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words_per_iteration run =
  run 100;
  (words (fun () -> run 1100) -. words (fun () -> run 100)) /. 1000.0

let test_bdio_allocation () =
  let c, placement = bench24_placement () in
  let box = Mps_placement.Expand.expand c placement in
  let arena = Mps_placement.Arena.create () in
  let rng = Mps_rng.Rng.create ~seed:4 in
  let per =
    words_per_iteration (fun iterations ->
        ignore
          (Bdio.optimize
             ~config:{ Bdio.default_config with Bdio.iterations }
             ~arena ~rng c placement ~box))
  in
  check_bool (Printf.sprintf "BDIO: %.1f minor words per iteration" per) true (per <= 16.0)

let test_coord_opt_allocation () =
  let c, placement = bench24_placement () in
  let die_w = placement.Placement.die_w and die_h = placement.Placement.die_h in
  let target = Mps_geometry.Dimbox.center (Circuit.dim_bounds c) in
  let arena = Mps_placement.Arena.create () in
  let rng = Mps_rng.Rng.create ~seed:4 in
  let module Coord_opt = Mps_placement.Coord_opt in
  let per =
    words_per_iteration (fun iterations ->
        ignore
          (Coord_opt.optimize
             ~config:{ Coord_opt.default_config with Coord_opt.iterations }
             ~arena ~initial:placement.Placement.coords ~rng c ~die_w ~die_h target))
  in
  check_bool
    (Printf.sprintf "Coord_opt: %.1f minor words per iteration" per)
    true (per <= 26.0)

let test_expand_allocation () =
  let c, placement = bench24_placement () in
  let expand () = ignore (Mps_placement.Expand.expand c placement) in
  expand ();
  let w = words expand in
  check_bool (Printf.sprintf "Expand.expand: %.0f minor words" w) true (w <= 2000.0)

(* The rest of a candidate's evaluation, pinned per call: one admission
   test (64 evaluations through the warm arena, against the backup
   re-pack order a run computes once), one [Stored.make], and the
   fixed part of a BDIO run — its setup and the result it builds
   around the iterations. *)
let admission_fixture () =
  let c, placement = bench24_placement () in
  let arena = Mps_placement.Arena.create () in
  let rng = Mps_rng.Rng.create ~seed:6 in
  let expansion = Mps_placement.Expand.expand c placement in
  let bdio = Bdio.optimize ~arena ~rng c placement ~box:expansion in
  let stored ~template_like ~box =
    Stored.make ~template_like ~placement ~box ~expansion ~avg_cost:bdio.Bdio.avg_cost
      ~best_cost:bdio.Bdio.best_cost ~best_dims:bdio.Bdio.best_dims
  in
  let backup = stored ~template_like:true ~box:(Circuit.dim_bounds c) in
  let order = Mps_placement.Repack.order placement.Placement.coords in
  (c, placement, expansion, bdio, stored, backup, order, arena, rng)

let test_admission_allocation () =
  let c, _, _, bdio, stored, backup, order, arena, rng = admission_fixture () in
  let candidate = stored ~template_like:false ~box:bdio.Bdio.box in
  let evals = ref 0 in
  let admit () =
    ignore (Generator.beats_backup_locally rng c backup ~order candidate ~arena ~evals)
  in
  admit ();
  let w = words admit in
  check_bool (Printf.sprintf "admission test: %.0f minor words" w) true (w <= 400.0)

let test_stored_make_allocation () =
  let _, _, _, bdio, stored, _, _, _, _ = admission_fixture () in
  let make () = ignore (Sys.opaque_identity (stored ~template_like:false ~box:bdio.Bdio.box)) in
  make ();
  let w = words make in
  check_bool (Printf.sprintf "Stored.make: %.0f minor words" w) true (w <= 16.0)

let test_bdio_result_allocation () =
  let c, placement, expansion, _, _, _, _, arena, rng = admission_fixture () in
  let run () =
    ignore
      (Bdio.optimize
         ~config:{ Bdio.default_config with Bdio.iterations = 1 }
         ~arena ~rng c placement ~box:expansion)
  in
  run ();
  let w = words run in
  check_bool (Printf.sprintf "BDIO setup and result: %.0f minor words" w) true (w <= 3200.0)

(* parallel generation: bit-determinism across job counts *)

let par_config =
  {
    Generator.fast_config with
    Generator.explorer_iterations = 6;
    bdio = { Bdio.default_config with Bdio.iterations = 40 };
    coverage_target = 2.0;
    max_placements = 1000;
    backup_iterations = 200;
    refine_iterations = 60;
  }

let bytes_at ~jobs circuit =
  Codec.to_string (fst (Generator.generate ~config:par_config ~jobs circuit))

(* The acceptance property on three Table 1 circuits: the structure a
   parallel run produces is a pure function of the config, never of the
   worker count.  Jobs 2 and 3 split the walk ranges unevenly (and 3
   does not divide the restart counts), 8 oversubscribes this class of
   host — each a distinct scheduling regime, all required to reproduce
   the 1-job bytes. *)
let test_jobs_invariant_structures () =
  List.iter
    (fun circuit ->
      let one = bytes_at ~jobs:1 circuit in
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "%s: %d jobs bit-identical to 1 job" circuit.Circuit.name
               jobs)
            true
            (bytes_at ~jobs circuit = one))
        [ 2; 3; 8 ])
    [ Benchmarks.circ01; Benchmarks.circ02; Benchmarks.circ06 ]

(* The other entry points share the loop, so they share its
   job-count independence. *)

let base_structure = lazy (fst (Generator.generate ~config:par_config ~jobs:2 Benchmarks.circ02))

let extend_config = { par_config with Generator.seed = 77; explorer_iterations = 4 }

let extend_bytes ?(config = extend_config) ~jobs () =
  Codec.to_string (fst (Generator.extend ~config ~jobs (Lazy.force base_structure)))

let test_extend_jobs_invariant () =
  check_bool "extend: 3 jobs bit-identical to 1 job" true
    (extend_bytes ~jobs:3 () = extend_bytes ~jobs:1 ())

let with_checkpoint_file f =
  let path = Filename.temp_file "mps_par_ckpt" ".mpsc" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let killed config path =
  { config with Generator.max_seconds = Some 0.0; checkpoint_path = Some path; checkpoint_every = 2 }

(* Kill a 4-job run at time zero, resume it with 3 jobs, and demand the
   same bytes an uninterrupted 2-job run produces: determinism must
   survive both the interruption and a job-count change across it. *)
let test_par_kill_resume_matches () =
  let circuit = Benchmarks.circ02 in
  with_checkpoint_file (fun path ->
      let straight = bytes_at ~jobs:2 circuit in
      let _, stats = Generator.generate ~config:(killed par_config path) ~jobs:4 circuit in
      check_bool "deadline flagged" true stats.Generator.deadline_hit;
      check_bool "final checkpoint forced" true (Sys.file_exists path);
      let cp = Checkpoint.load ~circuit ~path in
      check_bool "checkpoint carries every walk, one round each" true
        (Array.length cp.Checkpoint.walks > 1
        && Array.for_all
             (fun w -> w.Checkpoint.w_step = cp.Checkpoint.chunk)
             cp.Checkpoint.walks);
      let cp' = Checkpoint.of_string ~circuit (Checkpoint.to_string cp) in
      check_bool "checkpoint round-trips bit-exactly" true
        (Checkpoint.to_string cp = Checkpoint.to_string cp');
      let resumed, rstats = Generator.resume ~config:par_config ~jobs:3 cp in
      check_bool "kill at 4 jobs + resume at 3 equals the straight run" true
        (Codec.to_string resumed = straight);
      check_bool "resumed run ran to its budget" true
        (not rstats.Generator.deadline_hit))

(* The same for an extension: killed at 1 job, resumed at 3. *)
let test_extend_kill_resume_matches () =
  let circuit = Benchmarks.circ02 in
  with_checkpoint_file (fun path ->
      let straight = extend_bytes ~jobs:2 () in
      ignore (extend_bytes ~config:(killed extend_config path) ~jobs:1 ());
      let cp = Checkpoint.load ~circuit ~path in
      let resumed, _ = Generator.resume ~config:extend_config ~jobs:3 cp in
      check_bool "extend killed at 1 job + resume at 3 equals the straight extend" true
        (Codec.to_string resumed = straight))

(* A single walk checkpoints one walk record and resumes through the
   same loop, at any job count. *)
let test_single_walk_kill_resume_matches () =
  let circuit = Benchmarks.circ02 in
  with_checkpoint_file (fun path ->
      let straight = Codec.to_string (fst (Generator.single_walk ~config:par_config circuit)) in
      ignore (Generator.single_walk ~config:(killed par_config path) circuit);
      let cp = Checkpoint.load ~circuit ~path in
      check_int "checkpoint carries one walk" 1 (Array.length cp.Checkpoint.walks);
      let resumed, _ = Generator.resume ~config:par_config ~jobs:3 cp in
      check_bool "single walk killed + resume at 3 equals the straight walk" true
        (Codec.to_string resumed = straight))

(* pooled audit / repair reproduce the sequential outcome *)

(* A structure with real findings: one placement's recorded cost is
   drifted (Degraded, repairable in place) and — when the circuit has
   more than one block — another placement's coordinates are piled onto
   a corner (Fatal, quarantined). *)
let flawed_structure =
  lazy
    (let s = fst (Generator.single_walk ~config:par_config Benchmarks.circ01) in
     let circuit = Structure.circuit s in
     let stored = Array.map Fun.id (Structure.placements s) in
     stored.(0) <-
       { (stored.(0)) with Stored.best_cost = stored.(0).Stored.best_cost +. 500.0 };
     if Array.length stored > 1 && Stored.n_blocks stored.(1) > 1 then begin
       let p = stored.(1).Stored.placement in
       let placement =
         {
           p with
           Mps_placement.Placement.coords =
             Array.map (fun _ -> (0, 0)) p.Mps_placement.Placement.coords;
         }
       in
       stored.(1) <- { (stored.(1)) with Stored.placement = placement }
     end;
     Structure.of_placements ~backup:(Structure.backup s) circuit stored)

let test_pooled_audit_identical () =
  let s = Lazy.force flawed_structure in
  let seq = Audit.run s in
  check_bool "flawed structure has findings" false (Audit.clean seq);
  Pool.with_pool ~jobs:4 (fun pool ->
      let par = Audit.run ~pool s in
      check_bool "pooled audit report identical to sequential" true
        (Audit.to_json par = Audit.to_json seq))

let test_pooled_repair_identical () =
  let s = Lazy.force flawed_structure in
  let seq = Repair.run s in
  Pool.with_pool ~jobs:4 (fun pool ->
      let par = Repair.run ~pool s in
      check_bool "pooled repair yields the identical structure" true
        (Codec.to_string par.Repair.structure = Codec.to_string seq.Repair.structure);
      check_bool "pooled repair after-report identical" true
        (Audit.to_json par.Repair.after = Audit.to_json seq.Repair.after);
      check_bool "same quarantine set" true
        (par.Repair.quarantined = seq.Repair.quarantined))

let suite =
  [
    ("pool map preserves task order at any job count", `Quick, test_map_order);
    ("pool re-raises the lowest failing task", `Quick, test_map_exception_lowest_index);
    ("pool runs the next batch after a failed one", `Quick,
     test_pool_reusable_after_failure);
    ("pool misuse rejected, shutdown idempotent", `Quick, test_pool_misuse_rejected);
    ("map keeps task order, slots in range", `Quick, test_map_order_and_slots);
    ("scheduler stats account for every task", `Quick, test_pool_stats_accounting);
    ("default_jobs cap: min(8, recommended domains), at least 1", `Quick,
      test_default_jobs_cap);
    ("a blocked task never stalls its batch", `Quick,
     test_blocked_task_does_not_stall_batch);
    ("move LUT draw path allocates nothing", `Quick,
     test_move_lut_draws_do_not_allocate);
    ("parallel generation bit-identical at 1/2/3/8 jobs", `Quick,
     test_jobs_invariant_structures);
    ("kill at 4 jobs, resume at 3: equals the straight run", `Quick,
     test_par_kill_resume_matches);
    ("extend bit-identical at 1/3 jobs", `Quick, test_extend_jobs_invariant);
    ("extend killed at 1 job, resumed at 3: equals the straight extend", `Quick,
     test_extend_kill_resume_matches);
    ("single walk killed, resumed at 3 jobs: equals the straight walk", `Quick,
     test_single_walk_kill_resume_matches);
    ("pooled audit equals sequential audit", `Quick, test_pooled_audit_identical);
    ("pooled repair equals sequential repair", `Quick, test_pooled_repair_identical);
    ("bdio allocation per iteration is pinned", `Quick, test_bdio_allocation);
    ("coord_opt allocation per iteration is pinned", `Quick, test_coord_opt_allocation);
    ("expand allocation is pinned", `Quick, test_expand_allocation);
    ("admission test allocation is pinned", `Quick, test_admission_allocation);
    ("Stored.make allocation is pinned", `Quick, test_stored_make_allocation);
    ("bdio setup and result allocation is pinned", `Quick, test_bdio_result_allocation);
  ]
