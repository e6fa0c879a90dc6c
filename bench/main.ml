(* Benchmark harness.

   Part 1 (bechamel): micro-benchmarks — one Test.make per Table 2
   circuit for placement instantiation, the compiled-vs-linear query
   ablation, and the per-query cost of the baseline placers (the
   motivation for the whole paper).

   Part 2: regenerates every table and figure (Table 1, Table 2,
   Figures 5-7) and the ablation reports.  Pass --quick to use the
   reduced generation budget.

   Standalone modes (nothing else runs):
   --gen-bench    times one quick-budget generation per Table 1 circuit
                  and writes machine-readable BENCH_GEN.json (circuit,
                  cost evaluations, wall seconds, evaluations/sec) for
                  the CI throughput artifact.
   --query-bench  measures per-call engine query and instantiation
                  latency (p50/p99 over 2048 seeded probes per circuit)
                  and sizing-walk queries/sec, cross-checks every
                  answer against the linear oracle and every in-place
                  floorplan against the oracle's placement, and writes
                  BENCH_QUERY.json for the CI latency artifact.
   --par-bench    sweeps the parallel generator over jobs in {1,2,4,8}
                  on circ06, tso-cascode and benchmark24 (quick budget)
                  and writes BENCH_PAR.json: wall seconds, speedup,
                  per-worker scheduler counters (tasks/steals/minor
                  words) and the structure hash per job count — the
                  hashes must all be equal per circuit, which CI
                  asserts — plus a seed_baseline block with the
                  pre-work-stealing benchmark24 walls for
                  cross-revision speedup.
   --load-bench   times cold load-to-query-ready for the text format
                  (parse + recompile) vs the MPSZ container (mmap) per
                  Table 1 circuit, measures the size win of compaction,
                  cross-checks mapped vs heap answers on 4096 probes
                  each, and writes BENCH_LOAD.json — CI gates the
                  benchmark24 row (>= 10x load speedup, >= 20% bytes
                  after compact, zero mismatches).
   --shm-bench    measures the shared-memory ring (DESIGN.md §13) in
                  isolation against an echo peer in a second domain:
                  round-trip latency p50/p99 per frame size, and
                  pipelined throughput with a full window in flight.
                  Writes BENCH_SHM.json — the transport-level bound on
                  what the serve-layer fast path can deliver here.
   --jobs N       runs --gen-bench generation with N pool workers
                  (default: the machine's recommended domain count). *)

(* Seconds on the monotonic clock (nanosecond resolution: a
   sub-microsecond engine query does not round to zero).  Defined
   before [open Toolkit], whose [Monotonic_clock] is bechamel's
   measure, not this clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

open Bechamel
open Toolkit
open Mps_netlist
open Mps_core

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* p50/p99 in microseconds of one call of [f] per probe. *)
let time_calls f probes =
  let samples =
    Array.map
      (fun dims ->
        let t0 = now () in
        ignore (Sys.opaque_identity (f dims));
        now () -. t0)
      probes
  in
  Array.sort compare samples;
  (percentile samples 0.50 *. 1e6, percentile samples 0.99 *. 1e6)

let budget =
  if Array.exists (String.equal "--quick") Sys.argv then
    Mps_experiments.Experiments.Quick
  else Mps_experiments.Experiments.Full

(* Pre-generate one structure per circuit (quick budget: the bechamel
   subject is the query, not the generation). *)
let structures =
  lazy
    (List.map
       (fun circuit ->
         let config =
           Mps_experiments.Experiments.generator_config Mps_experiments.Experiments.Quick
             circuit
         in
         let structure, _ = Generator.single_walk ~config circuit in
         let probes = Mps_experiments.Experiments.probe_dims ~seed:17 ~n:256 structure in
         (circuit, structure, probes))
       Benchmarks.all)

let instantiation_tests () =
  List.map
    (fun (circuit, structure, probes) ->
      let i = ref 0 in
      Test.make ~name:circuit.Circuit.name
        (Staged.stage (fun () ->
             let dims = probes.(!i land 255) in
             incr i;
             Sys.opaque_identity (Structure.instantiate structure dims))))
    (Lazy.force structures)

let query_tests () =
  let _, structure, probes =
    List.find
      (fun (c, _, _) -> String.equal c.Circuit.name "benchmark24")
      (Lazy.force structures)
  in
  let mk name f =
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           let dims = probes.(!i land 255) in
           incr i;
           Sys.opaque_identity (f structure dims)))
  in
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  [
    mk "linear" Structure.query_linear;
    mk "engine" (fun _ dims -> Structure.Engine.query engine session dims);
  ]

let baseline_tests () =
  let circuit = Benchmarks.two_stage_opamp in
  let _, structure, probes =
    List.find
      (fun (c, _, _) -> String.equal c.Circuit.name "TwoStage Opamp")
      (Lazy.force structures)
  in
  let die_w, die_h = Structure.die structure in
  let rng = Mps_rng.Rng.create ~seed:3 in
  let template = Mps_baselines.Template_placer.build ~rng circuit ~die_w ~die_h in
  let sa_config = { Mps_baselines.Sa_placer.default_config with iterations = 1000 } in
  let i = ref 0 in
  let next () =
    let dims = probes.(!i land 255) in
    incr i;
    dims
  in
  [
    Test.make ~name:"mps"
      (Staged.stage (fun () -> Sys.opaque_identity (Structure.instantiate structure (next ()))));
    Test.make ~name:"template"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Mps_baselines.Template_placer.instantiate template (next ()))));
    Test.make ~name:"sa-placer-1k"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Mps_baselines.Sa_placer.place ~config:sa_config ~rng circuit ~die_w ~die_h
                (next ()))));
  ]

let run_group ~name tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let test = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "bench group: %s (ns/run, OLS on monotonic clock)\n" name;
  let rows = ref [] in
  Hashtbl.iter
    (fun test_name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | Some [] | None -> "n/a"
      in
      rows := (test_name, ns) :: !rows)
    results;
  List.iter
    (fun (test_name, ns) -> Printf.printf "  %-40s %12s ns\n" test_name ns)
    (List.sort compare !rows);
  print_newline ()

(* Generation throughput: the headline number for the incremental
   delta-cost engine.  The baseline block records the same quick-budget
   benchmark24 run measured on this machine just before the engine
   landed, so the JSON carries its own speedup denominator. *)
let baseline_evaluations = 19001
let baseline_wall_seconds = 0.613

(* Optional worker count for the generation benches: "--jobs N" routes
   generation through the domain pool. *)
let jobs_arg () =
  let rec scan i =
    if i >= Array.length Sys.argv - 1 then None
    else if String.equal Sys.argv.(i) "--jobs" then int_of_string_opt Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let gen_bench () =
  let module E = Mps_experiments.Experiments in
  let jobs = jobs_arg () in
  let run circuit =
    let config = E.generator_config E.Quick circuit in
    let t0 = now () in
    let _, stats = Generator.generate ~config ?jobs circuit in
    let wall = now () -. t0 in
    (stats.Generator.cost_evaluations, wall)
  in
  (* one warm-up generation so the first row is not charged for cold
     code paths *)
  ignore (run Benchmarks.circ01);
  let measured =
    List.map
      (fun circuit ->
        let evals, wall = run circuit in
        let rate = float_of_int evals /. wall in
        Printf.printf "%-16s %8d evals  %7.3f s  %10.0f evals/s\n%!"
          circuit.Circuit.name evals wall rate;
        (circuit.Circuit.name, evals, wall, rate))
      Benchmarks.all
  in
  let rows =
    List.map
      (fun (name, evals, wall, rate) ->
        Printf.sprintf
          "    { \"circuit\": %S, \"evaluations\": %d, \"wall_seconds\": %.4f, \
           \"evals_per_sec\": %.0f }"
          name evals wall rate)
      measured
  in
  let _, _, _, rate24 =
    List.find (fun (name, _, _, _) -> String.equal name "benchmark24") measured
  in
  let baseline_rate = float_of_int baseline_evaluations /. baseline_wall_seconds in
  let speedup = rate24 /. baseline_rate in
  let oc = open_out "BENCH_GEN.json" in
  Printf.fprintf oc "{\n  \"budget\": \"quick\",\n  \"rows\": [\n%s\n  ],\n"
    (String.concat ",\n" rows);
  Printf.fprintf oc
    "  \"baseline\": { \"circuit\": \"benchmark24\", \"evaluations\": %d, \
     \"wall_seconds\": %.4f, \"evals_per_sec\": %.0f },\n"
    baseline_evaluations baseline_wall_seconds baseline_rate;
  Printf.fprintf oc "  \"speedup_benchmark24\": %.2f\n}\n" speedup;
  close_out oc;
  Printf.printf "benchmark24 speedup vs pre-engine baseline: %.2fx\n" speedup;
  print_endline "wrote BENCH_GEN.json"

(* Sizing-loop workload: a sequential random walk of slightly perturbed
   dimension vectors, the traffic pattern a synthesis loop produces —
   each candidate differs from the previous one by a small bump on one
   block axis, with an occasional jump to a different operating region.
   Consecutive probes usually land in the same validity box, which is
   what the engine's hot-box cache exploits. *)
let sizing_walk ~seed ~n structure =
  let module G = Mps_geometry in
  let rng = Mps_rng.Rng.create ~seed in
  let circuit = Structure.circuit structure in
  let bounds = Circuit.dim_bounds circuit in
  let stored = Structure.placements structure in
  let jump () = stored.(Mps_rng.Rng.int rng (Array.length stored)).Stored.best_dims in
  let current = ref (jump ()) in
  Array.init n (fun _ ->
      (if Mps_rng.Rng.int rng 64 = 0 then current := jump ()
       else begin
         let d = !current in
         let i = Mps_rng.Rng.int rng (G.Dims.n_blocks d) in
         let delta = if Mps_rng.Rng.int rng 2 = 0 then 1 else -1 in
         let d' =
           if Mps_rng.Rng.int rng 2 = 0 then
             G.Dims.set_width d i (max 1 (G.Dims.width d i + delta))
           else G.Dims.set_height d i (max 1 (G.Dims.height d i + delta))
         in
         current := G.Dimbox.clamp bounds d'
       end);
      !current)

(* Query-path latency and throughput: per-circuit p50/p99 of a single
   engine query and of an in-place instantiation, plus queries/sec on
   the sizing-loop walk — the serving-path counterpart of the
   generation-throughput numbers above.  Every probe is answered by a
   warm engine session, by [Structure.query] (a fresh session, so no
   hot-box cache) and by the linear oracle, and its in-place floorplan
   ([Engine.instantiate_into]) is compared rect for rect with the
   oracle's placement committed at the probe ([Stored.instantiate_auto],
   or the re-packed backup on a fallback); any disagreement is counted
   and fails the run (exit 1), which is the CI smoke contract for
   BENCH_QUERY.json. *)
let query_bench () =
  let module E = Mps_experiments.Experiments in
  (* Throughput over the walk, several passes for a stable number. *)
  let walk_reps = 5 in
  let qps f walk =
    let t0 = now () in
    for _ = 1 to walk_reps do
      Array.iter (fun d -> ignore (Sys.opaque_identity (f d))) walk
    done;
    let wall = now () -. t0 in
    float_of_int (walk_reps * Array.length walk) /. wall
  in
  let mismatches_total = ref 0 in
  let rows =
    List.map
      (fun circuit ->
        let config = E.generator_config E.Quick circuit in
        let structure, _ = Generator.single_walk ~config circuit in
        let engine = Structure.Engine.create structure in
        let probes = E.probe_dims ~seed:23 ~n:2048 structure in
        let walk = sizing_walk ~seed:29 ~n:20000 structure in
        (* Answer and floorplan agreement on every probe of both
           workloads. *)
        let mismatches = ref 0 and floorplan_mismatches = ref 0 in
        let vsession = Structure.Engine.new_session () in
        let fsession = Structure.Engine.new_session () in
        let check d =
          let a_lin, s_lin = Structure.query_linear structure d in
          if
            fst (Structure.Engine.query engine vsession d) <> a_lin
            || fst (Structure.query structure d) <> a_lin
          then incr mismatches;
          let expected =
            match a_lin with
            | Structure.Stored_placement _ -> Stored.instantiate_auto s_lin d
            | Structure.Fallback | Structure.Out_of_domain -> Stored.instantiate_repacked s_lin d
          in
          let got = Structure.Engine.instantiate_into engine fsession d in
          if
            not
              (Array.length got = Array.length expected
              && Array.for_all2 Mps_geometry.Rect.equal got expected)
          then incr floorplan_mismatches
        in
        Array.iter check probes;
        Array.iter check walk;
        mismatches_total := !mismatches_total + !mismatches + !floorplan_mismatches;
        (* Per-call latency on uniform probes. *)
        let session = Structure.Engine.new_session () in
        Array.iter
          (fun d -> ignore (Structure.Engine.instantiate_into engine session d))
          (Array.sub probes 0 64);
        let e50, e99 =
          time_calls (fun d -> Structure.Engine.query engine session d) probes
        in
        let n50, n99 =
          time_calls (fun d -> Structure.Engine.instantiate_into engine session d) probes
        in
        let wsession = Structure.Engine.new_session () in
        let walk_qps = qps (fun d -> Structure.Engine.query engine wsession d) walk in
        let wstats = Structure.Engine.stats wsession in
        let hit_rate =
          float_of_int wstats.Structure.Engine.cache_hits
          /. float_of_int (max 1 wstats.Structure.Engine.queries)
        in
        Printf.printf
          "%-20s query p50 %5.2f us  p99 %5.2f us   instantiate p50 %5.2f us  p99 \
           %5.2f us   walk %9.0f q/s (cache %4.1f%%)  mismatches %d (floorplans %d)\n\
           %!"
          circuit.Circuit.name e50 e99 n50 n99 walk_qps (100.0 *. hit_rate) !mismatches
          !floorplan_mismatches;
        Printf.sprintf
          "    { \"circuit\": %S, \"probes\": %d, \"engine_query_p50_us\": %.3f, \
           \"engine_query_p99_us\": %.3f, \"engine_instantiate_p50_us\": %.3f, \
           \"engine_instantiate_p99_us\": %.3f, \"walk_qps_engine\": %.0f, \
           \"cache_hit_rate\": %.4f, \"mismatches\": %d, \"floorplan_mismatches\": %d }"
          circuit.Circuit.name (Array.length probes) e50 e99 n50 n99 walk_qps hit_rate
          !mismatches !floorplan_mismatches)
      Benchmarks.all
  in
  let oc = open_out "BENCH_QUERY.json" in
  Printf.fprintf oc
    "{\n\
    \  \"budget\": \"quick\",\n\
    \  \"rows\": [\n\
     %s\n\
    \  ],\n\
    \  \"mismatches_total\": %d\n\
     }\n"
    (String.concat ",\n" rows) !mismatches_total;
  close_out oc;
  Printf.printf "answer and floorplan mismatches across all circuits: %d\n"
    !mismatches_total;
  print_endline "wrote BENCH_QUERY.json";
  if !mismatches_total > 0 then exit 1

(* Parallel generation scaling: one quick-budget run per (circuit, job
   count).  The structure hash (CRC-32 of the serialized structure)
   must be identical at every job count per circuit — that is the
   determinism contract of Generator.generate, and CI fails if it
   breaks.  Speedups are relative to jobs=1 on this host; host_cores
   records how much hardware was actually available (on a 1-core host
   the sweep still proves determinism and measures scheduler overhead,
   it just cannot show parallel speedup).  Per-worker scheduler
   counters (tasks, chunks, steals, minor words, busy seconds) come
   from the pool via on_pool_stats — the diagnosis surface for scaling
   regressions: rising minor_words means allocation churn is back in
   the hot path, and every minor collection is a stop-the-world across
   domains. *)

(* Zero-copy load benchmark: per Table 1 circuit, time "cold load to
   query-ready" for the text document (parse + overlap validation +
   engine compilation) against the MPSZ container (map + record
   decode), measure the size win of `mpsgen compact`, and cross-check
   the mapped engine against the heap engine probe for probe.  Emits
   BENCH_LOAD.json; the CI load-bench job gates the benchmark24 row:
   >= 10x cold-load speedup, >= 20% bytes after compaction, zero
   query mismatches. *)
let load_bench () =
  let module E = Mps_experiments.Experiments in
  let median f reps =
    let samples =
      Array.init reps (fun _ ->
          let t0 = now () in
          ignore (Sys.opaque_identity (f ()));
          now () -. t0)
    in
    Array.sort compare samples;
    samples.(reps / 2)
  in
  let file_bytes path = (Unix.stat path).Unix.st_size in
  let dir = Filename.temp_file "mps_loadbench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let mismatches_total = ref 0 in
  let rows =
    List.map
      (fun circuit ->
        let config = E.generator_config E.Quick circuit in
        let structure, _ = Generator.single_walk ~config circuit in
        let tpath = Filename.concat dir "s.mps" in
        let zpath = Filename.concat dir "s.mpsz" in
        let cpath = Filename.concat dir "c.mpsz" in
        Codec.save structure ~path:tpath;
        Zcodec.save structure ~path:zpath;
        let compacted, _ = Compact.run structure in
        Zcodec.save ~packed:true compacted ~path:cpath;
        let text_bytes = file_bytes tpath
        and mpsz_bytes = file_bytes zpath
        and compact_bytes = file_bytes cpath in
        let reduction =
          1.0 -. (float_of_int compact_bytes /. float_of_int mpsz_bytes)
        in
        (* cold load to query-ready: the text path must recompile, the
           container just maps and decodes the record table *)
        let reps = 15 in
        let text_s =
          median
            (fun () -> Structure.Engine.create (Codec.load ~circuit ~path:tpath))
            reps
        in
        let mpsz_s = median (fun () -> Zcodec.load ~circuit zpath) reps in
        let speedup = text_s /. mpsz_s in
        (* mapped vs heap engine: identical answers on every probe *)
        let heap = Structure.Engine.create compacted in
        let view = Zcodec.load ~circuit cpath in
        let mapped = view.Zcodec.engine in
        let probes = E.probe_dims ~seed:31 ~n:4096 compacted in
        let hs = Structure.Engine.new_session ()
        and ms = Structure.Engine.new_session () in
        let mismatches = ref 0 in
        Array.iter
          (fun d ->
            if
              Structure.Engine.query_id heap hs d
              <> Structure.Engine.query_id mapped ms d
            then incr mismatches)
          probes;
        mismatches_total := !mismatches_total + !mismatches;
        let hsession = Structure.Engine.new_session () in
        let msession = Structure.Engine.new_session () in
        let h50, h99 =
          time_calls (fun d -> Structure.Engine.query heap hsession d) probes
        in
        let m50, m99 =
          time_calls (fun d -> Structure.Engine.query mapped msession d) probes
        in
        List.iter Sys.remove [ tpath; zpath; cpath ];
        Printf.printf
          "%-20s cold %7.2f -> %6.3f ms (%5.1fx)   bytes %6d -> %6d -> %6d \
           (-%4.1f%%)   query p50 %5.2f/%5.2f us p99 %5.2f/%5.2f us   mismatches %d\n\
           %!"
          circuit.Circuit.name (text_s *. 1e3) (mpsz_s *. 1e3) speedup text_bytes
          mpsz_bytes compact_bytes (100. *. reduction) h50 m50 h99 m99 !mismatches;
        let row =
          Printf.sprintf
            "    { \"circuit\": %S, \"text_bytes\": %d, \"mpsz_bytes\": %d, \
             \"compact_bytes\": %d, \"bytes_reduction\": %.4f, \
             \"cold_load_text_ms\": %.4f, \"cold_load_mpsz_ms\": %.4f, \
             \"load_speedup\": %.2f, \"probes\": %d, \"mismatches\": %d, \
             \"heap_query_p50_us\": %.3f, \"heap_query_p99_us\": %.3f, \
             \"mapped_query_p50_us\": %.3f, \"mapped_query_p99_us\": %.3f }"
            circuit.Circuit.name text_bytes mpsz_bytes compact_bytes reduction
            (text_s *. 1e3) (mpsz_s *. 1e3) speedup (Array.length probes)
            !mismatches h50 h99 m50 m99
        in
        (circuit.Circuit.name, speedup, reduction, row))
      Benchmarks.all
  in
  Unix.rmdir dir;
  let _, speedup24, reduction24, _ =
    List.find (fun (name, _, _, _) -> String.equal name "benchmark24") rows
  in
  let oc = open_out "BENCH_LOAD.json" in
  Printf.fprintf oc
    "{\n\
    \  \"budget\": \"quick\",\n\
    \  \"rows\": [\n\
     %s\n\
    \  ],\n\
    \  \"load_speedup_benchmark24\": %.2f,\n\
    \  \"bytes_reduction_benchmark24\": %.4f,\n\
    \  \"mismatches_total\": %d\n\
     }\n"
    (String.concat ",\n" (List.map (fun (_, _, _, row) -> row) rows))
    speedup24 reduction24 !mismatches_total;
  close_out oc;
  Printf.printf "benchmark24 cold-load speedup (mpsz vs text): %.2fx\n" speedup24;
  Printf.printf "benchmark24 bytes reduction after compact: %.1f%%\n"
    (100. *. reduction24);
  Printf.printf "query mismatches across all circuits: %d\n" !mismatches_total;
  print_endline "wrote BENCH_LOAD.json";
  if !mismatches_total > 0 then exit 1

(* The seed_baseline block records the same quick-budget benchmark24
   sweep measured on this host just before the work-stealing pool,
   per-worker arenas and move LUTs landed, so the JSON carries its own
   cross-revision denominator ("speedup_vs_seed"). *)
let seed_baseline_walls = [ (1, 0.336); (2, 0.364); (4, 0.540); (8, 0.780) ]
let seed_baseline_evaluations = 73540
let seed_baseline_hash = "5a8a8386"

let par_bench () =
  let module E = Mps_experiments.Experiments in
  let job_counts = [ 1; 2; 4; 8 ] in
  let circuits = [ Benchmarks.circ06; Benchmarks.tso_cascode; Benchmarks.benchmark24 ] in
  let run circuit jobs =
    let config = E.generator_config E.Quick circuit in
    let pool_stats = ref [||] in
    let t0 = now () in
    let structure, stats =
      Generator.generate ~config ~jobs ~on_pool_stats:(fun s -> pool_stats := s) circuit
    in
    let wall = now () -. t0 in
    let hash = Persist.crc32_hex (Codec.to_string structure) in
    (jobs, wall, stats.Generator.cost_evaluations, hash, !pool_stats)
  in
  ignore (run Benchmarks.circ06 2) (* warm-up: cold code paths and domain spawning *);
  let worker_json stats =
    String.concat ", "
      (Array.to_list
         (Array.mapi
            (fun slot (s : Mps_parallel.Pool.stats) ->
              Printf.sprintf
                "{ \"slot\": %d, \"tasks\": %d, \"chunks\": %d, \"steals\": %d, \
                 \"batches\": %d, \"minor_words\": %.0f, \"busy_seconds\": %.4f }"
                slot s.Mps_parallel.Pool.tasks s.chunks s.steals s.batches
                s.minor_words s.busy_seconds)
            stats))
  in
  let per_circuit =
    List.map
      (fun circuit ->
        let name = circuit.Circuit.name in
        let rows = List.map (run circuit) job_counts in
        let _, base_wall, _, base_hash, _ =
          List.find (fun (jobs, _, _, _, _) -> jobs = 1) rows
        in
        let hash_equal =
          List.for_all (fun (_, _, _, hash, _) -> String.equal hash base_hash) rows
        in
        Printf.printf "%s:\n" name;
        List.iter
          (fun (jobs, wall, evals, hash, stats) ->
            let steals =
              Array.fold_left (fun acc s -> acc + s.Mps_parallel.Pool.steals) 0 stats
            in
            Printf.printf "  jobs=%d  %7.3f s  %8d evals  %5.2fx  steals %4d  hash %s\n%!"
              jobs wall evals (base_wall /. wall) steals hash)
          rows;
        let json_rows =
          List.map
            (fun (jobs, wall, evals, hash, stats) ->
              let vs_seed =
                if String.equal name "benchmark24" then
                  match List.assoc_opt jobs seed_baseline_walls with
                  | Some seed_wall ->
                    Printf.sprintf ", \"speedup_vs_seed\": %.3f" (seed_wall /. wall)
                  | None -> ""
                else ""
              in
              Printf.sprintf
                "        { \"jobs\": %d, \"wall_seconds\": %.4f, \"evaluations\": %d, \
                 \"speedup\": %.3f%s, \"structure_hash\": \"%s\",\n\
                \          \"workers\": [ %s ] }"
                jobs wall evals (base_wall /. wall) vs_seed hash (worker_json stats))
            rows
        in
        let block =
          Printf.sprintf
            "    { \"circuit\": %S, \"hash_equal\": %b, \"rows\": [\n%s\n    ] }"
            name hash_equal
            (String.concat ",\n" json_rows)
        in
        (name, hash_equal, block))
      circuits
  in
  let all_equal = List.for_all (fun (_, eq, _) -> eq) per_circuit in
  let seed_rows =
    String.concat ", "
      (List.map
         (fun (jobs, wall) ->
           Printf.sprintf "{ \"jobs\": %d, \"wall_seconds\": %.4f }" jobs wall)
         seed_baseline_walls)
  in
  let oc = open_out "BENCH_PAR.json" in
  Printf.fprintf oc
    "{\n\
    \  \"budget\": \"quick\",\n\
    \  \"host_cores\": %d,\n\
    \  \"circuits\": [\n\
     %s\n\
    \  ],\n\
    \  \"seed_baseline\": { \"circuit\": \"benchmark24\", \"evaluations\": %d, \
     \"structure_hash\": \"%s\", \"host_cores\": 1,\n\
    \                     \"rows\": [ %s ] },\n\
    \  \"structure_hash_equal\": %b\n\
     }\n"
    (Domain.recommended_domain_count ())
    (String.concat ",\n" (List.map (fun (_, _, block) -> block) per_circuit))
    seed_baseline_evaluations seed_baseline_hash seed_rows all_equal;
  close_out oc;
  Printf.printf "structure hashes %s across job counts\n"
    (if all_equal then "identical" else "DIFFER");
  print_endline "wrote BENCH_PAR.json";
  if not all_equal then exit 1

let main () =
  print_endline "=== Micro-benchmarks (bechamel) ===";
  print_newline ();
  run_group ~name:"instantiate" (instantiation_tests ());
  run_group ~name:"query24" (query_tests ());
  run_group ~name:"placer" (baseline_tests ());
  let module E = Mps_experiments.Experiments in
  print_endline "=== Paper experiments ===";
  print_newline ();
  print_string (E.table1 ());
  print_newline ();
  print_string (snd (E.table2 ~budget ()));
  print_newline ();
  print_string (E.figure5 ~budget ());
  print_newline ();
  print_string (snd (E.figure6 ~budget ()));
  print_newline ();
  print_string (E.figure7 ~budget ());
  print_newline ();
  print_endline "=== Ablations ===";
  print_newline ();
  print_string (E.ablation_shrink ~budget ());
  print_newline ();
  print_string (E.ablation_explorer ~budget ());
  print_newline ();
  print_string (E.ablation_query ~budget ());
  print_newline ();
  print_string (E.ablation_fallback ~budget ());
  print_newline ();
  print_string (E.ablation_parasitics ~budget ());
  print_newline ();
  print_string (E.ablation_refine ~budget ());
  print_newline ();
  print_string (E.synthesis_comparison ~budget ())

(* --shm-bench: the ring transport in isolation.  An echo peer runs in
   its own domain; every frame the main domain sends comes straight
   back, so a round trip is two publishes and two consumes with no
   serving work in between — the floor under the serve layer's
   per-request cost over shm. *)
let shm_bench () =
  let module Shm = Mps_serve.Shm in
  let dir = Filename.temp_file "mps_shmbench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "ring" in
  let ring_words = 64 * 1024 in
  let server = Shm.create ~ring_words ~path () in
  let sizes = [ 32; 256; 2048 ] in
  let rtts = 4096 in
  let pipe_frames = 65536 in
  let pipe_window = 256 in
  let pipe_bytes = 32 in
  let echo =
    Domain.spawn (fun () ->
        let client = Shm.attach ~path () in
        let buf = ref (Bytes.create 4096) in
        let total = (List.length sizes * rtts) + pipe_frames in
        (try
           for _ = 1 to total do
             let len =
               Shm.recv ~deadline:(Unix.gettimeofday () +. 120.0) client ~buf
             in
             Shm.send client !buf ~off:0 ~len
           done
         with Shm.Dead _ | Shm.Timeout -> ());
        Shm.close client)
  in
  let buf = ref (Bytes.create 4096) in
  let payload = Bytes.make 4096 'x' in
  let rtt_rows =
    List.map
      (fun size ->
        let samples =
          Array.init rtts (fun _ ->
              let t0 = now () in
              Shm.send server payload ~off:0 ~len:size;
              ignore
                (Shm.recv ~deadline:(Unix.gettimeofday () +. 120.0) server ~buf);
              now () -. t0)
        in
        Array.sort compare samples;
        let p50 = percentile samples 0.50 *. 1e6 in
        let p99 = percentile samples 0.99 *. 1e6 in
        Printf.printf "shm rtt %5d B  p50 %7.2f us  p99 %7.2f us\n%!" size p50 p99;
        (size, p50, p99))
      sizes
  in
  let t0 = now () in
  let sent = ref 0 and got = ref 0 in
  while !got < pipe_frames do
    if !sent < pipe_frames && !sent - !got < pipe_window then begin
      Shm.send server payload ~off:0 ~len:pipe_bytes;
      incr sent
    end
    else begin
      ignore (Shm.recv ~deadline:(Unix.gettimeofday () +. 120.0) server ~buf);
      incr got
    end
  done;
  let pipe_secs = now () -. t0 in
  let fps = float_of_int pipe_frames /. pipe_secs in
  Printf.printf "shm pipelined %d B x %d in flight: %d frames in %.3f s (%.0f frames/s)\n%!"
    pipe_bytes pipe_window pipe_frames pipe_secs fps;
  Domain.join echo;
  Shm.close server;
  Shm.remove server;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let oc = open_out "BENCH_SHM.json" in
  Printf.fprintf oc "{\n  \"ring_words\": %d,\n  \"round_trip\": [\n%s\n  ],\n"
    ring_words
    (String.concat ",\n"
       (List.map
          (fun (size, p50, p99) ->
            Printf.sprintf
              "    { \"frame_bytes\": %d, \"rtt_p50_us\": %.2f, \"rtt_p99_us\": %.2f }"
              size p50 p99)
          rtt_rows));
  Printf.fprintf oc
    "  \"pipelined\": { \"frame_bytes\": %d, \"window\": %d, \"frames_per_sec\": %.0f }\n}\n"
    pipe_bytes pipe_window fps;
  close_out oc;
  print_endline "wrote BENCH_SHM.json"

let () =
  if Array.exists (String.equal "--gen-bench") Sys.argv then gen_bench ()
  else if Array.exists (String.equal "--query-bench") Sys.argv then query_bench ()
  else if Array.exists (String.equal "--par-bench") Sys.argv then par_bench ()
  else if Array.exists (String.equal "--load-bench") Sys.argv then load_bench ()
  else if Array.exists (String.equal "--shm-bench") Sys.argv then shm_bench ()
  else main ()
