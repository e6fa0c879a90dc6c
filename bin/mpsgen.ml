(* mpsgen: command-line front end.

   - [mpsgen list]                    print the Table 1 inventory
   - [mpsgen generate CIRCUIT]        build a structure, report stats
   - [mpsgen query CIRCUIT -i FILE]   query a saved structure
   - [mpsgen verify CIRCUIT -i FILE]  integrity-check a saved structure
   - [mpsgen dump CIRCUIT -i FILE]    write a container's v2 text dump
   - [mpsgen stats CIRCUIT -i FILE]   size accounting for a saved structure
   - [mpsgen audit CIRCUIT -i FILE]   re-prove every invariant of a saved structure
   - [mpsgen repair CIRCUIT -i FILE]  salvage, quarantine and re-save a structure
   - [mpsgen route CIRCUIT -i FILE]   query a saved structure and maze-route
   - [mpsgen extend CIRCUIT -i FILE]  resume exploration on a saved structure
   - [mpsgen experiments TARGET]      regenerate a table / figure / ablation
   - [mpsgen serve -d DIR]            run the mpsd structure-serving daemon
   - [mpsgen health ADDR]             readiness probe against a running mpsd
   - [mpsgen bench-serve CIRCUIT]     end-to-end serving throughput/latency

   Every command that writes a structure writes the MPSZ container
   (conventionally [<circuit>.mpsz]) and every command reads only that
   container; [dump] writes its v2 text form, which nothing reads back.
   [generate] and [extend] checkpoint with
   [--checkpoint FILE --checkpoint-every N --max-seconds S] and resume
   automatically when the checkpoint file exists. *)

open Cmdliner
open Mps_geometry
open Mps_netlist
open Mps_core

(* Clean one-line failure: no raw Sys_error backtraces out of the CLI. *)
let die fmt =
  Format.ksprintf
    (fun msg ->
      Format.eprintf "mpsgen: error: %s@." msg;
      exit 1)
    fmt

(* Strict loads map the container; eq. 5 is re-checked once when a
   command needs the structure rather than just the engine. *)
let load_view ~circuit ~path =
  match Zcodec.load ~circuit path with
  | v -> v
  | exception Zcodec.Error e -> die "%s: %s" path (Zcodec.error_to_string e)

let load_structure ~circuit ~path =
  match Structure.Engine.structure (load_view ~circuit ~path).Zcodec.engine with
  | s -> s
  | exception Invalid_argument msg -> die "%s: %s" path msg

let save_container structure ~path =
  match Zcodec.save structure ~path with
  | () -> ()
  | exception Zcodec.Error e -> die "%s: %s" path (Zcodec.error_to_string e)

let budget_conv =
  let parse = function
    | "quick" -> Ok Mps_experiments.Experiments.Quick
    | "full" -> Ok Mps_experiments.Experiments.Full
    | s -> Error (`Msg (Printf.sprintf "unknown budget %S (quick|full)" s))
  in
  let print fmt = function
    | Mps_experiments.Experiments.Quick -> Format.fprintf fmt "quick"
    | Mps_experiments.Experiments.Full -> Format.fprintf fmt "full"
  in
  Arg.conv (parse, print)

let budget_arg =
  Arg.(
    value
    & opt budget_conv Mps_experiments.Experiments.Quick
    & info [ "b"; "budget" ] ~docv:"BUDGET" ~doc:"Generation budget: quick or full.")

let circuit_conv =
  let parse s =
    match Benchmarks.by_name s with
    | c -> Ok c
    | exception Not_found ->
      let names = List.map (fun c -> c.Circuit.name) Benchmarks.all in
      Error (`Msg (Printf.sprintf "unknown circuit %S; known: %s" s (String.concat ", " names)))
  in
  Arg.conv (parse, fun fmt c -> Format.fprintf fmt "%s" c.Circuit.name)

let circuit_arg =
  Arg.(
    required
    & pos 0 (some circuit_conv) None
    & info [] ~docv:"CIRCUIT" ~doc:"Benchmark circuit name from Table 1 (see $(b,mpsgen list)).")

(* A numeric flag below its floor is a clean one-line error (exit 1).
   cmdliner rejects [--samples -3] as an unknown option but parses
   [--samples=-3] as a well-formed int. *)
let at_least floor flag term =
  Term.map (fun v -> if v < floor then die "%s must be at least %d" flag floor else v) term

let jobs_arg =
  at_least 1 "--jobs"
    Arg.(
      value
      & opt int (Mps_parallel.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel phases (default: the machine's recommended \
             domain count, capped at 8).  Results are bit-identical at any job count.")

(* list *)

let list_cmd =
  let run () = print_string (Mps_experiments.Experiments.table1 ()) in
  Cmd.v (Cmd.info "list" ~doc:"Print the Table 1 benchmark inventory.") Term.(const run $ const ())

(* generate *)

(* Checkpoint plumbing shared by generate and extend: fold the flags
   into the generator config, resume automatically when the checkpoint
   file already exists, and retire a spent checkpoint once its run
   completed and the result is safely on disk. *)

let with_checkpointing base ~checkpoint ~checkpoint_every ~max_seconds =
  {
    base with
    Generator.checkpoint_path = checkpoint;
    checkpoint_every;
    max_seconds;
  }

let resume_if_checkpointed ~circuit ~checkpoint ~config ~jobs ~fresh =
  match checkpoint with
  | Some path when Sys.file_exists path -> (
    match Checkpoint.load ~circuit ~path with
    | cp ->
      Format.printf "Resuming from checkpoint %s (step %d, %d placements)...@." path
        cp.Checkpoint.step
        (Structure.n_placements cp.Checkpoint.structure);
      Generator.resume ~config ~jobs cp
    | exception Zcodec.Error e -> die "checkpoint %s: %s" path (Zcodec.error_to_string e))
  | _ -> fresh ()

let report_deadline ~checkpoint stats =
  if stats.Generator.deadline_hit then
    Format.printf "  stopped early: wall-clock deadline reached%s@."
      (if checkpoint = None then "" else " (rerun to resume from the checkpoint)")

let report_stats ~checkpoint stats =
  Format.printf
    "  placements stored: %d@.  coverage: %.4f@.  explorer steps: %d@.  dropped: %d@.  \
     CPU time: %s@."
    stats.Generator.placements_stored stats.Generator.coverage
    stats.Generator.explorer_steps stats.Generator.candidates_dropped
    (Mps_experiments.Text_table.seconds stats.Generator.generation_seconds);
  report_deadline ~checkpoint stats

let retire_checkpoint ~stats ~saved checkpoint =
  match checkpoint with
  | Some path when (not stats.Generator.deadline_hit) && saved && Sys.file_exists path ->
    (try Sys.remove path with Sys_error _ -> ());
    Format.printf "  removed spent checkpoint %s@." path
  | _ -> ()

let generate circuit budget svg_dir save_path checkpoint checkpoint_every max_seconds
    jobs =
  let config =
    with_checkpointing
      (Mps_experiments.Experiments.generator_config budget circuit)
      ~checkpoint ~checkpoint_every ~max_seconds
  in
  let structure, stats =
    resume_if_checkpointed ~circuit ~checkpoint ~config ~jobs ~fresh:(fun () ->
        Format.printf "Generating a multi-placement structure for %s (%d jobs)...@."
          circuit.Circuit.name jobs;
        let t0 = Unix.gettimeofday () in
        let result = Generator.generate ~config ~jobs circuit in
        Format.printf "  wall time: %.4f s@." (Unix.gettimeofday () -. t0);
        result)
  in
  report_stats ~checkpoint stats;
  print_string (Structure.describe structure);
  (match save_path with
  | None -> ()
  | Some path ->
    save_container structure ~path;
    Format.printf "  saved structure to %s@." path);
  retire_checkpoint ~stats ~saved:(save_path <> None) checkpoint;
  match svg_dir with
  | None -> ()
  | Some dir ->
    let die_w, die_h = Structure.die structure in
    let best = Structure.backup structure in
    let rects = Stored.instantiate best best.Stored.best_dims in
    let path =
      Filename.concat dir
        (String.map (function ' ' -> '_' | c -> c) circuit.Circuit.name ^ ".svg")
    in
    Mps_render.Svg.save ~path ~title:circuit.Circuit.name circuit ~die_w ~die_h rects;
    Format.printf "  wrote %s@." path

let svg_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "svg" ] ~docv:"DIR" ~doc:"Also write the best placement as an SVG into $(docv).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "save" ] ~docv:"FILE"
        ~doc:
          "Persist the generated structure to $(docv) as an MPSZ container (reload \
           with $(b,mpsgen query)).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Snapshot the generation run to $(docv) (written atomically) so a crash or \
           kill loses at most $(b,--checkpoint-every) rounds of work.  When $(docv) \
           already exists the run resumes from it automatically.")

let checkpoint_every_arg =
  at_least 1 "--checkpoint-every"
    Arg.(
      value
      & opt int 5
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write the checkpoint every $(docv) lockstep rounds of the explorer walks (with \
             $(b,--checkpoint)).")

let max_seconds_arg =
  Term.map
    (function Some s when s <= 0.0 -> die "--max-seconds must be positive" | v -> v)
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock deadline: stop gracefully after $(docv) seconds and keep the \
             best structure so far (with $(b,--checkpoint), also a final checkpoint to \
             resume from).")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a multi-placement structure and report statistics.")
    Term.(
      const generate $ circuit_arg $ budget_arg $ svg_arg $ save_arg $ checkpoint_arg $ checkpoint_every_arg $ max_seconds_arg $ jobs_arg)

(* query a saved structure *)

type point =
  | Center
  | Min
  | Max
  | Random of int

let point_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "center" ] -> Ok Center
    | [ "min" ] -> Ok Min
    | [ "max" ] -> Ok Max
    | [ "random" ] -> Ok (Random 1)
    | [ "random"; seed ] -> (
      match int_of_string_opt seed with
      | Some n -> Ok (Random n)
      | None -> Error (`Msg "random:<seed> needs an integer seed"))
    | _ -> Error (`Msg (Printf.sprintf "unknown point %S (center|min|max|random[:seed])" s))
  in
  let print fmt = function
    | Center -> Format.fprintf fmt "center"
    | Min -> Format.fprintf fmt "min"
    | Max -> Format.fprintf fmt "max"
    | Random n -> Format.fprintf fmt "random:%d" n
  in
  Arg.conv (parse, print)

let point_arg =
  Arg.(
    value
    & opt point_conv Center
    & info [ "p"; "point" ] ~docv:"POINT"
        ~doc:"Dimension vector to query: center, min, max or random[:seed].")

let dims_of_point circuit point =
  let bounds = Circuit.dim_bounds circuit in
  match point with
  | Center -> Dimbox.center bounds
  | Min -> Circuit.min_dims circuit
  | Max -> Circuit.max_dims circuit
  | Random seed -> Dimbox.random_dims (Mps_rng.Rng.create ~seed) bounds

(* Explicit dimension vectors: "WxH,WxH,..." one pair per block.  Any
   shape or range problem is a clean one-line error, never a raw
   exception out of the CLI. *)
let parse_dims circuit s =
  let pair tok =
    match String.split_on_char 'x' (String.trim tok) with
    | [ w; h ] -> (
      match (int_of_string_opt w, int_of_string_opt h) with
      | Some w, Some h when w >= 1 && h >= 1 -> (w, h)
      | Some _, Some _ -> die "bad dimension pair %S (width and height must be at least 1)" tok
      | _ -> die "bad dimension pair %S (expected WxH, e.g. 12x8)" tok)
    | _ -> die "bad dimension pair %S (expected WxH, e.g. 12x8)" tok
  in
  let pairs =
    String.split_on_char ',' s |> List.filter (fun t -> String.trim t <> "")
    |> List.map pair
  in
  let n = Circuit.n_blocks circuit in
  if List.length pairs <> n then
    die "expected %d WxH pairs for %s, got %d" n circuit.Circuit.name (List.length pairs);
  Dims.of_pairs (Array.of_list pairs)

let load_salvaged ~circuit ~path =
  match Repair.salvage ~circuit ~path with
  | Ok sv ->
    let outcome = sv.Repair.outcome in
    Format.printf "Salvaged %d placements (%d dropped, %d quarantined%s%s).@."
      sv.Repair.recovered sv.Repair.dropped
      (List.length outcome.Repair.quarantined)
      (if sv.Repair.backup_recovered then "" else ", backup lost")
      (if sv.Repair.checksum_ok then "" else ", checksum bad");
    outcome.Repair.structure
  | Error e -> die "%s: %s" path (Zcodec.error_to_string e)

let query circuit path point dims_opt salvage =
  let engine =
    if salvage then Structure.Engine.create (load_salvaged ~circuit ~path)
    else (load_view ~circuit ~path).Zcodec.engine
  in
  let dims =
    match dims_opt with
    | Some s -> parse_dims circuit s
    | None -> dims_of_point circuit point
  in
  if not (Circuit.dims_valid circuit dims) then
    die "dimension vector outside the designer range for %s (see mpsgen list)"
      circuit.Circuit.name;
  let session = Structure.Engine.new_session () in
  let answer, stored = Structure.Engine.query engine session dims in
  let rects, cost = Structure.Engine.instantiate_cost engine session dims in
  let die_w, die_h = Structure.Engine.die engine in
  (match answer with
  | Structure.Stored_placement id ->
    Format.printf "Hit stored placement #%d (avg %.1f, best %.1f).@." id
      stored.Stored.avg_cost stored.Stored.best_cost
  | Structure.Fallback -> Format.printf "Uncovered dimensions: backup template used.@."
  | Structure.Out_of_domain ->
    Format.printf "Dimensions outside the designer space: backup template used.@.");
  Format.printf "Floorplan (cost %.1f):@.%s" cost
    (Mps_render.Ascii.render ~max_cols:64 circuit ~die_w ~die_h rects)

let load_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "load" ] ~docv:"FILE"
        ~doc:"MPSZ container written by $(b,mpsgen generate --save).")

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Recover what is intact from a corrupt or truncated container instead of \
           refusing it; queries over lost territory fall back to the backup \
           placement.")

let dims_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dims" ] ~docv:"DIMS"
        ~doc:
          "Explicit dimension vector, one WxH pair per block, comma separated (e.g. \
           $(b,12x8,10x20)).  Overrides $(b,--point).  Out-of-range vectors are \
           rejected with exit code 1.")

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Query a saved multi-placement structure (no regeneration).")
    Term.(const query $ circuit_arg $ load_arg $ point_arg $ dims_arg $ salvage_arg)

(* verify a saved structure *)

(* Exit codes double as a machine interface (the CI serve smoke job
   scripts against them): 0 intact, 1 corrupt or for another circuit,
   2 missing or unreadable. *)
let verify circuit path quiet =
  let fail code msg =
    if not quiet then Format.eprintf "%s: verify failed: %s@." path msg;
    exit code
  in
  match Zcodec.load ~circuit path with
  | exception Zcodec.Error e ->
    fail
      (match e with Zcodec.Io_error _ -> 2 | Zcodec.Corrupt _ | Zcodec.Circuit_mismatch _ -> 1)
      (Zcodec.error_to_string e)
  | view -> (
    (* the load proved: readable, header and every section CRC intact,
       circuit identity, every record well-formed; eq. 5 (disjoint
       validity boxes) is re-checked here.  Report what was checked. *)
    match Structure.Engine.structure view.Zcodec.engine with
    | exception Invalid_argument msg -> fail 1 msg
    | structure ->
      if not quiet then begin
        let die_w, die_h = Structure.die structure in
        Format.printf
          "%s: OK@.  format: mpsz container@.  checksum: valid@.  circuit: %s (%d \
           blocks, %d nets)@.  die: %dx%d@.  placements: %d (%d explored), validity \
           boxes disjoint@.  coverage: %.6f@."
          path circuit.Circuit.name (Circuit.n_blocks circuit) (Circuit.n_nets circuit)
          die_w die_h (Structure.n_placements structure)
          (Structure.n_explored structure) (Structure.coverage structure)
      end)

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:"Print nothing; communicate through the exit code only.")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a saved structure end-to-end: checksum, format version, circuit \
          identity, placement well-formedness and validity-box disjointness.  Exits 0 \
          when the file is intact, 1 when it is corrupt or belongs to another circuit, \
          2 when it is missing or unreadable.")
    Term.(const verify $ circuit_arg $ load_arg $ quiet_arg)

(* dump: the container's v2 text form, for diffs and debugging *)

let dump circuit path out =
  let structure = load_structure ~circuit ~path in
  let dest =
    match out with
    | Some p -> p
    | None ->
      if Filename.check_suffix path ".mpsz" then Filename.chop_suffix path "z"
      else path ^ ".mps"
  in
  match Codec.save structure ~path:dest with
  | () -> Format.printf "dumped %s -> %s@." path dest
  | exception Codec.Error e -> die "%s: %s" dest (Codec.error_to_string e)

let dump_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Destination (default: the input path with $(b,.mpsz) replaced by $(b,.mps)).")

let dump_cmd =
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Write a structure's MPSZ container as the line-oriented v2 text document \
          (for diffs and debugging; no command reads it back).  Its CRC-32 is the \
          structure hash the pins name.")
    Term.(const dump $ circuit_arg $ load_arg $ dump_out_arg)

(* stats: size accounting for a saved structure *)

let stats circuit path json =
  let v = load_view ~circuit ~path in
  let bytes = v.Zcodec.bytes in
  let records = v.Zcodec.n_stored + 1 in
  let dedupe = float_of_int (records - v.Zcodec.n_pool) /. float_of_int records in
  let header_bytes =
    match v.Zcodec.sections with s :: _ -> 8 * s.Zcodec.off_words | [] -> bytes
  in
  if json then begin
    let section_json =
      v.Zcodec.sections
      |> List.map (fun s ->
             Printf.sprintf "    {\"tag\": %S, \"bytes\": %d}" s.Zcodec.tag
               (8 * s.Zcodec.len_words))
      |> String.concat ",\n"
    in
    Printf.printf
      "{\n\
      \  \"path\": %S,\n\
      \  \"format\": \"mpsz\",\n\
      \  \"bytes\": %d,\n\
      \  \"placements\": %d,\n\
      \  \"pool\": %d,\n\
      \  \"dedupe_ratio\": %.4f,\n\
      \  \"bytes_per_placement\": %.1f,\n\
      \  \"header_bytes\": %d,\n\
      \  \"sections\": [\n%s\n  ]\n\
       }\n"
      path bytes v.Zcodec.n_stored v.Zcodec.n_pool dedupe
      (float_of_int bytes /. float_of_int records)
      header_bytes section_json
  end
  else begin
    Format.printf
      "%s: mpsz container@.  bytes: %d (%.1f per placement)@.  placements: %d (+ \
       backup)@.  coordinate pool: %d arrays (dedupe ratio %.1f%%)@.  header: %d \
       bytes@.  sections:@."
      path bytes
      (float_of_int bytes /. float_of_int records)
      v.Zcodec.n_stored v.Zcodec.n_pool (100. *. dedupe) header_bytes;
    List.iter
      (fun s -> Format.printf "    %-4s %8d bytes@." s.Zcodec.tag (8 * s.Zcodec.len_words))
      v.Zcodec.sections
  end

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Size accounting for a saved structure: bytes on disk, placement and \
          coordinate-pool counts, dedupe ratio, and the per-section byte \
          breakdown.")
    Term.(const stats $ circuit_arg $ load_arg $ stats_json_arg)

(* audit a saved structure *)

let audit circuit path salvage json samples seed out jobs =
  let structure =
    if salvage then load_salvaged ~circuit ~path else load_structure ~circuit ~path
  in
  let report =
    Mps_parallel.Pool.with_pool ~jobs (fun pool ->
        Audit.run ~pool ~samples_per_box:samples ~seed structure)
  in
  let rendered = if json then Audit.to_json report else Audit.to_string report in
  (match out with
  | None -> print_string rendered
  | Some p ->
    (try Persist.atomic_write ~path:p rendered
     with Sys_error msg -> die "%s" msg);
    Format.printf "wrote audit report to %s@." p;
    if not json then print_string rendered);
  if Audit.clean report then () else exit 1

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the machine-readable JSON report instead of text.")

let samples_arg =
  at_least 0 "--samples"
    Arg.(
      value
      & opt int Audit.default_samples_per_box
      & info [ "samples" ] ~docv:"N" ~doc:"Seeded legality samples per validity box.")

let audit_seed_arg =
  Arg.(
    value
    & opt int Audit.default_seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the audit's sampled checks.")

let report_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the report to $(docv).")

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Re-prove every invariant of a saved structure: validity-box disjointness (eq. \
          5), box-in-expansion containment, floorplan legality at box corners and \
          seeded samples, cost-field consistency, backup legality and whole-space \
          query probes.  Exits 1 when any Fatal or Degraded finding survives.")
    Term.(
      const audit $ circuit_arg $ load_arg $ salvage_arg $ json_arg $ samples_arg
      $ audit_seed_arg $ report_out_arg $ jobs_arg)

(* repair a saved structure *)

let repair circuit path out jobs =
  let structure = load_salvaged ~circuit ~path in
  let outcome =
    Mps_parallel.Pool.with_pool ~jobs (fun pool ->
        Repair.run ~pool structure)
  in
  print_string (Audit.to_string outcome.Repair.before);
  Format.printf "%s@." (Repair.describe outcome);
  let dest = Option.value out ~default:path in
  save_container outcome.Repair.structure ~path:dest;
  Format.printf "saved repaired structure to %s@." dest;
  print_string (Audit.to_string outcome.Repair.after);
  if Repair.clean outcome then () else exit 1

let repair_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "save" ] ~docv:"FILE"
        ~doc:"Where to write the repaired structure (default: overwrite the input).")

let repair_cmd =
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Salvage a saved structure, audit it, quarantine placements with fatal \
          findings (their territory falls to the backup template; $(b,extend) \
          re-covers it), refresh degraded cost fields, replace a broken backup, \
          re-audit and save.  Exits 1 when the repaired structure is still not \
          audit-clean.")
    Term.(const repair $ circuit_arg $ load_arg $ repair_out_arg $ jobs_arg)

(* route a floorplan *)

let route circuit path point =
  let engine = (load_view ~circuit ~path).Zcodec.engine in
  let dims = dims_of_point circuit point in
  let rects = Structure.Engine.instantiate engine (Structure.Engine.new_session ()) dims in
  let die_w, die_h = Structure.Engine.die engine in
  let routing = Mps_route.Router.route circuit ~die_w ~die_h rects in
  Format.printf "Routed %d nets: total length %.0f, overflow %d@."
    (Array.length routing.Mps_route.Router.nets) routing.Mps_route.Router.total_length
    routing.Mps_route.Router.overflow;
  let wire_points =
    Array.to_list routing.Mps_route.Router.nets
    |> List.concat_map (fun (net : Mps_route.Router.routed_net) ->
           List.map Mps_route.Router.cell_center net.Mps_route.Router.cells)
  in
  print_string
    (Mps_render.Ascii.render_routed ~max_cols:72 circuit ~die_w ~die_h rects ~wire_points)

let route_cmd =
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Query a saved structure, maze-route the floorplan and print the wire overlay.")
    Term.(const route $ circuit_arg $ load_arg $ point_arg)

(* extend a saved structure *)

let extend circuit path budget seed save_path checkpoint checkpoint_every max_seconds
    jobs =
  let base = Mps_experiments.Experiments.generator_config budget circuit in
  let config =
    with_checkpointing
      { base with Generator.seed; max_placements = base.Generator.max_placements * 2 }
      ~checkpoint ~checkpoint_every ~max_seconds
  in
  let extended, stats =
    resume_if_checkpointed ~circuit ~checkpoint ~config ~jobs ~fresh:(fun () ->
        let structure = load_structure ~circuit ~path in
        Format.printf "Loaded %d explored placements; resuming exploration...@."
          (Structure.n_explored structure);
        Generator.extend ~config ~jobs structure)
  in
  Format.printf "  now %d explored placements (coverage %.6f, %s CPU)@."
    (Structure.n_explored extended) stats.Generator.coverage
    (Mps_experiments.Text_table.seconds stats.Generator.generation_seconds);
  report_deadline ~checkpoint stats;
  let out = Option.value save_path ~default:path in
  save_container extended ~path:out;
  Format.printf "  saved to %s@." out;
  retire_checkpoint ~stats ~saved:true checkpoint

let seed_arg =
  Arg.(
    value
    & opt int 99
    & info [ "seed" ] ~docv:"SEED" ~doc:"Explorer seed for the new walks.")

let extend_save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "save" ] ~docv:"FILE"
        ~doc:"Where to write the extended structure (default: overwrite the input).")

let extend_cmd =
  Cmd.v
    (Cmd.info "extend"
       ~doc:"Resume exploration on a saved structure and store the extended result.")
    Term.(
      const extend $ circuit_arg $ load_arg $ budget_arg $ seed_arg $ extend_save_arg
      $ checkpoint_arg $ checkpoint_every_arg $ max_seconds_arg $ jobs_arg)

(* experiments *)

let experiment_targets =
  [
    ("table1", `Table1);
    ("table2", `Table2);
    ("figure5", `Figure5);
    ("figure6", `Figure6);
    ("figure7", `Figure7);
    ("ablation-shrink", `Ablation_shrink);
    ("ablation-explorer", `Ablation_explorer);
    ("ablation-query", `Ablation_query);
    ("ablation-fallback", `Ablation_fallback);
    ("ablation-parasitics", `Ablation_parasitics);
    ("ablation-refine", `Ablation_refine);
    ("synthesis", `Synthesis);
    ("all", `All);
  ]

let target_arg =
  Arg.(
    required
    & pos 0 (some (enum experiment_targets)) None
    & info [] ~docv:"TARGET"
        ~doc:("One of: " ^ String.concat ", " (List.map fst experiment_targets) ^ "."))

let run_experiment target budget csv_dir =
  let module E = Mps_experiments.Experiments in
  let module Csv = Mps_experiments.Csv in
  let save_csv name content =
    match csv_dir with
    | None -> ()
    | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content);
      Format.printf "wrote %s@." path
  in
  let run = function
    | `Table1 -> print_string (E.table1 ())
    | `Table2 ->
      let rows, report = E.table2 ~budget () in
      print_string report;
      save_csv "table2" (Csv.table2 rows)
    | `Figure5 -> print_string (E.figure5 ~budget ())
    | `Figure6 ->
      let points, report = E.figure6 ~budget () in
      print_string report;
      save_csv "figure6" (Csv.figure6 points)
    | `Figure7 -> print_string (E.figure7 ~budget ())
    | `Ablation_shrink -> print_string (E.ablation_shrink ~budget ())
    | `Ablation_explorer -> print_string (E.ablation_explorer ~budget ())
    | `Ablation_query -> print_string (E.ablation_query ~budget ())
    | `Ablation_fallback -> print_string (E.ablation_fallback ~budget ())
    | `Ablation_parasitics -> print_string (E.ablation_parasitics ~budget ())
    | `Ablation_refine -> print_string (E.ablation_refine ~budget ())
    | `Synthesis -> print_string (E.synthesis_comparison ~budget ())
    | `All -> assert false
  in
  match target with
  | `All ->
    List.iter
      (fun (_, t) ->
        if t <> `All then begin
          run t;
          print_newline ()
        end)
      experiment_targets
  | t -> run t

let csv_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write the experiment's data series as CSV into $(docv) (table2, figure6).")

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate a table, figure or ablation from the paper.")
    Term.(const run_experiment $ target_arg $ budget_arg $ csv_arg)

(* serve: the mpsd daemon *)

module Server = Mps_serve.Server
module Store = Mps_serve.Store
module Client = Mps_serve.Client
module Wire = Mps_serve.Wire

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p -> Server.Tcp ((if host = "" then "127.0.0.1" else host), p)
    | None -> die "bad address %S (expected HOST:PORT)" spec)
  | None -> die "bad address %S (expected HOST:PORT)" spec

let parse_addr spec =
  match String.index_opt spec ':' with
  | Some 3 when String.sub spec 0 3 = "tcp" ->
    parse_tcp (String.sub spec 4 (String.length spec - 4))
  | _ -> Server.Unix_path spec

let addr_to_string = function
  | Server.Unix_path p -> p
  | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let serve dir socket tcp capacity workers max_connections max_inflight idle_timeout
    drain_timeout stat_interval =
  if capacity < 1 then die "--capacity must be at least 1";
  let store = Store.create ~capacity ~stat_interval ~dir () in
  let workers =
    if workers < 1 then die "--workers must be at least 1"
    else min workers (Domain.recommended_domain_count ())
  in
  let config =
    {
      Server.default_config with
      workers;
      max_connections;
      max_inflight;
      idle_timeout;
      drain_timeout;
    }
  in
  let addr =
    match tcp with
    | Some spec -> parse_tcp spec
    | None ->
      Server.Unix_path (Option.value socket ~default:(Filename.concat dir "mpsd.sock"))
  in
  let server =
    try Server.create ~config ~store addr
    with Unix.Unix_error (e, fn, arg) ->
      die "cannot bind %s: %s(%s): %s" (addr_to_string addr) fn arg
        (Unix.error_message e)
  in
  Server.install_sigterm server;
  Format.printf
    "mpsd: serving structures from %s on %s with %d worker domain(s) (SIGTERM drains)@."
    dir
    (addr_to_string (Server.bound_addr server))
    workers;
  Format.print_flush ();
  Server.run server;
  let s = Server.stats server in
  Format.printf
    "mpsd: drained: %d requests (%d queries, %d degraded) served; %d timeouts, %d \
     overloaded, %d bad, %d store errors; %d connections (%d shed, %d crashed), %d \
     accept failures; %d worker crashes, %d restarts, %d lost replies, %d breaker \
     trips@."
    s.Server.requests_served s.Server.queries_served s.Server.degraded_served
    s.Server.timeouts s.Server.overloaded s.Server.bad_requests s.Server.store_errors
    s.Server.accepted s.Server.shed_connections s.Server.connection_crashes
    s.Server.accept_failures s.Server.worker_crashes s.Server.worker_restarts
    s.Server.worker_lost_replies s.Server.breaker_trips

let store_dir_arg =
  Arg.(
    value
    & opt string "."
    & info [ "d"; "dir" ] ~docv:"DIR"
        ~doc:
          "Structure store: one $(b,<circuit>.mpsz) container per circuit (spaces \
           as underscores), as written by $(b,mpsgen generate -o).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket to listen on (default $(b,DIR/mpsd.sock)).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on TCP instead of a Unix socket; port 0 picks a free port.")

let capacity_arg =
  Arg.(
    value
    & opt int 8
    & info [ "capacity" ] ~docv:"N" ~doc:"Compiled engines kept live (LRU beyond).")

let workers_arg =
  Arg.(
    value
    & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains serving connections (capped at the host's core count).  \
           Each worker is crash-isolated and restarted under exponential backoff; \
           a restart storm trips a circuit breaker into degraded single-worker \
           mode.")

let max_connections_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.max_connections
    & info [ "max-connections" ] ~docv:"N"
        ~doc:"Connections beyond $(docv) are told overloaded and closed.")

let max_inflight_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.max_inflight
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Concurrently served requests beyond $(docv) are shed.")

let idle_timeout_arg =
  Arg.(
    value
    & opt float Server.default_config.Server.idle_timeout
    & info [ "idle-timeout" ] ~docv:"S" ~doc:"Drop connections silent for $(docv) seconds.")

let drain_timeout_arg =
  Arg.(
    value
    & opt float Server.default_config.Server.drain_timeout
    & info [ "drain-timeout" ] ~docv:"S"
        ~doc:"Seconds a graceful stop waits for in-flight requests.")

let stat_interval_arg =
  Arg.(
    value
    & opt float 0.05
    & info [ "stat-interval" ] ~docv:"S"
        ~doc:
          "Debounce hot-reload detection: re-stat a circuit's source file at most \
           once per $(docv) seconds (0 stats on every request).  The daemon's \
           supervision thread makes the stat off the request path, so requests cost \
           no stat syscall, and a repaired file is picked up within the interval.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run mpsd: serve saved multi-placement structures over a length-prefixed \
          binary protocol with per-request deadlines, bounded load shedding, hot \
          reload after $(b,mpsgen repair) (epoch-stamped replies), and degraded-mode \
          answers (flagged, never silently wrong) for structures with audit findings.  \
          With $(b,--workers) the connections are served by a pool of supervised, \
          crash-isolated worker domains; $(b,mpsgen health) probes the pool's \
          readiness.  SIGTERM drains gracefully.")
    Term.(
      const serve $ store_dir_arg $ socket_arg $ tcp_arg $ capacity_arg $ workers_arg
      $ max_connections_arg $ max_inflight_arg $ idle_timeout_arg $ drain_timeout_arg
      $ stat_interval_arg)

(* health: the readiness probe *)

(* Exit codes are the machine interface (orchestrator probes script
   against them): 0 ready, 1 not ready or unreachable. *)
let health_probe addr_spec timeout =
  let addr = parse_addr addr_spec in
  let client = Client.connect addr in
  match Client.health ~budget:timeout client with
  | Ok h ->
    Format.printf "%s@." (Wire.health_to_string h);
    if not h.Wire.ready then exit 1
  | Error e ->
    (* a daemon whose workers are all down cannot serve even the
       probe: unreachable IS the not-ready signal *)
    Format.printf "mpsd at %s: not ready: %s@." (addr_to_string addr)
      (Client.error_to_string e);
    exit 1

let health_addr_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:"Daemon address: a Unix socket path, or $(b,tcp:HOST:PORT).")

let health_timeout_arg =
  Arg.(
    value
    & opt float 2.0
    & info [ "timeout" ] ~docv:"S" ~doc:"Probe budget in seconds.")

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Probe a running mpsd: print the supervisor's health snapshot (readiness, \
          draining and circuit-breaker flags, per-worker state with restart counts \
          and queue depths, generation epoch) and exit 0 when ready, 1 when \
          not ready or unreachable — the shape an orchestrator's readiness probe \
          wants.")
    Term.(const health_probe $ health_addr_arg $ health_timeout_arg)

(* bench-serve: end-to-end serving throughput and latency *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

(* The sizing-loop traffic pattern: small bumps on one
   block axis with occasional jumps to another stored operating
   region, so consecutive queries exercise the engine's hot-box
   cache the way a synthesis loop would. *)
let walk_step rng structure bounds current =
  let stored = Structure.placements structure in
  if Mps_rng.Rng.int rng 64 = 0 then
    stored.(Mps_rng.Rng.int rng (Array.length stored)).Stored.best_dims
  else begin
    let d = current in
    let i = Mps_rng.Rng.int rng (Dims.n_blocks d) in
    let delta = if Mps_rng.Rng.int rng 2 = 0 then 1 else -1 in
    let d' =
      if Mps_rng.Rng.int rng 2 = 0 then Dims.set_width d i (max 1 (Dims.width d i + delta))
      else Dims.set_height d i (max 1 (Dims.height d i + delta))
    in
    Dimbox.clamp bounds d'
  end

(* One measurement's aggregate numbers. *)
type bench_serve_row = {
  bs_transport : string;
  bs_workers : int;
  bs_served : int;
  bs_seconds : float;
  bs_rate : float;
  bs_p50 : float;
  bs_p99 : float;
  bs_ring : int;
  bs_mismatches : int;
  bs_errors : int;
  bs_degraded : int;
}

let bench_serve circuit budget batch requests clients workers attach out jobs transport
    depth =
  let config = Mps_experiments.Experiments.generator_config budget circuit in
  Format.printf "bench-serve: generating %s (%s budget)...@." circuit.Circuit.name
    (match budget with Mps_experiments.Experiments.Quick -> "quick" | _ -> "full");
  Format.print_flush ();
  let structure, _ = Generator.generate ~config ~jobs circuit in
  (* the in-process oracle every served answer is checked against *)
  let engine = Structure.Engine.create structure in
  let name = circuit.Circuit.name in
  let bounds = Circuit.dim_bounds circuit in
  let per_client = max 1 (requests / max 1 clients) in
  (* Everything that is not serving happens outside the timed window:
     each client pregenerates a pool of sizing-walk batches and cycles
     them during the run (the repetition re-exercises the same validity
     boxes, which is what a sizing loop does anyway), then cross-checks
     every served answer against the in-process engine afterwards. *)
  let distinct = min per_client 8 in
  let run_measurement ~label ~shm ~nw addr =
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let run_client k =
      let rng = Mps_rng.Rng.create ~seed:(1000 + k) in
      let client = Client.connect ~shm addr in
      let session = Structure.Engine.new_session () in
      let current = ref (Dimbox.center bounds) in
      let pool =
        Array.init distinct (fun _ ->
            Array.init batch (fun _ ->
                current := walk_step rng structure bounds !current;
                !current))
      in
      let latencies = Array.make per_client 0.0 in
      let replies = Array.make per_client [||] in
      let errors = ref 0 and served = ref 0 and degraded = ref 0 in
      (* all clients enter the timed phase together *)
      Atomic.incr ready;
      while not (Atomic.get go) do
        Unix.sleepf 0.001
      done;
      let t_start = Unix.gettimeofday () in
      (* timed phase: pure request/reply traffic; a streak of requests
         failing even through retry-with-backoff means the daemon is
         gone for good — stop burning backoff time on the remainder *)
      let give_up = 8 in
      let streak = ref 0 in
      let completed = ref 0 in
      let take r = function
        | Ok (ids, meta) ->
          streak := 0;
          served := !served + batch;
          if meta.Client.degraded then incr degraded;
          replies.(r) <- ids
        | Error e ->
          incr errors;
          incr streak;
          Format.eprintf "bench-serve: client %d: %s@." k (Client.error_to_string e)
      in
      (try
         if depth <= 1 then
           for r = 0 to per_client - 1 do
             let t0 = Unix.gettimeofday () in
             take r
               (Client.with_retry ~rng client (fun () ->
                    Client.query_ids ~budget:10.0 client ~circuit:name
                      pool.(r mod distinct)));
             latencies.(r) <- Unix.gettimeofday () -. t0;
             incr completed;
             if !streak >= give_up then raise Exit
           done
         else begin
           (* pipelined: windows of [depth] requests in flight at once;
              the per-request latency is the window's wall time split
              evenly — amortized, which is the number that matters for
              a pipelined sizing loop *)
           let r = ref 0 in
           while !r < per_client do
             let count = min depth (per_client - !r) in
             let group = Array.init count (fun j -> pool.((!r + j) mod distinct)) in
             let t0 = Unix.gettimeofday () in
             let results =
               Client.query_ids_pipelined ~budget:10.0 ~depth client ~circuit:name
                 group
             in
             let dt = (Unix.gettimeofday () -. t0) /. float_of_int count in
             Array.iteri
               (fun j out ->
                 take (!r + j) out;
                 latencies.(!r + j) <- dt)
               results;
             r := !r + count;
             completed := !r;
             if !streak >= give_up then raise Exit
           done
         end
       with Exit ->
         Format.eprintf
           "bench-serve: client %d: giving up after %d consecutive failures@." k give_up);
      let t_end = Unix.gettimeofday () in
      let latencies = Array.sub latencies 0 !completed in
      let ring = (Client.stats client).Client.ring_requests in
      Client.close client;
      (* untimed phase: every served answer against the oracle *)
      let expected =
        Array.map
          (fun dims -> Array.map (Structure.Engine.query_id engine session) dims)
          pool
      in
      let mismatches = ref 0 in
      Array.iteri
        (fun r ids ->
          if Array.length ids > 0 then
            Array.iteri
              (fun i id -> if id <> expected.(r mod distinct).(i) then incr mismatches)
              ids)
        replies;
      (latencies, !served, !mismatches, !errors, !degraded, ring, t_start, t_end)
    in
    Format.printf
      "bench-serve: [%s] %d client domain(s) x %d requests x %d queries on %s@." label
      clients per_client batch (addr_to_string addr);
    Format.print_flush ();
    let domains = Array.init clients (fun k -> Domain.spawn (fun () -> run_client k)) in
    while Atomic.get ready < clients do
      Unix.sleepf 0.001
    done;
    Atomic.set go true;
    let results = Array.map Domain.join domains in
    let seconds =
      let starts = Array.map (fun (_, _, _, _, _, _, s, _) -> s) results in
      let ends = Array.map (fun (_, _, _, _, _, _, _, e) -> e) results in
      Array.fold_left max ends.(0) ends -. Array.fold_left min starts.(0) starts
    in
    let latencies =
      Array.concat
        (Array.to_list (Array.map (fun (l, _, _, _, _, _, _, _) -> l) results))
    in
    Array.sort compare latencies;
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
    let served = sum (fun (_, s, _, _, _, _, _, _) -> s) in
    let row =
      {
        bs_transport = label;
        bs_workers = nw;
        bs_served = served;
        bs_seconds = seconds;
        bs_rate = float_of_int served /. seconds;
        bs_p50 = 1e6 *. percentile latencies 0.50;
        bs_p99 = 1e6 *. percentile latencies 0.99;
        bs_ring = sum (fun (_, _, _, _, _, g, _, _) -> g);
        bs_mismatches = sum (fun (_, _, m, _, _, _, _, _) -> m);
        bs_errors = sum (fun (_, _, _, e, _, _, _, _) -> e);
        bs_degraded = sum (fun (_, _, _, _, d, _, _, _) -> d);
      }
    in
    Format.printf
      "bench-serve: [%s] workers=%d: %d queries in %.3f s (%.0f served queries/s); \
       request p50 %.0f us, p99 %.0f us; %d over ring; %d mismatches, %d errors, %d \
       degraded replies@."
      label nw row.bs_served row.bs_seconds row.bs_rate row.bs_p50 row.bs_p99
      row.bs_ring row.bs_mismatches row.bs_errors row.bs_degraded;
    Format.print_flush ();
    row
  in
  let label =
    match transport with `Unix -> "unix" | `Tcp -> "tcp" | `Shm -> "shm"
  in
  let main_row, baseline, tcp_row =
    match attach with
    | Some spec ->
      (* a remote daemon's worker count is whatever it was started
         with; no sweep, just the one measurement.  --transport=shm
         against an attached daemon asks for the ring — only sensible
         when the daemon is on this host. *)
      ( run_measurement ~label ~shm:(transport = `Shm) ~nw:workers (parse_addr spec),
        None, None )
    | None ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "mpsd-bench.%d" (Unix.getpid ()))
      in
      (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      (* the daemon serves the circuit from this container's mapping *)
      save_container structure
        ~path:(Store.zpath_for (Store.create ~dir ()) circuit.Circuit.name);
      (* Each measurement execs a fresh `mpsgen serve` daemon in its
         own PROCESS — co-located the way production is, and with no
         shared OCaml heap: on OCaml 5 every minor collection is a
         stop-the-world across the domains of one runtime, so an
         in-process daemon would let client allocation pause the
         server (and vice versa), flattening the very transport gap
         this benchmark exists to measure. *)
      let free_port () =
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let port =
          match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Unix.close s;
        port
      in
      let hosted ~label ~shm ~tcp nw =
        let sock = Filename.concat dir "mpsd.sock" in
        (try Sys.remove sock with Sys_error _ -> ());
        let addr =
          if tcp then Server.Tcp ("127.0.0.1", free_port ()) else Server.Unix_path sock
        in
        let argv =
          Array.append
            [|
              Sys.executable_name; "serve"; "--dir"; dir; "--workers";
              string_of_int nw; "--max-inflight"; string_of_int (2 * clients);
            |]
            (match addr with
            | Server.Tcp (h, p) -> [| "--tcp"; Printf.sprintf "%s:%d" h p |]
            | Server.Unix_path p -> [| "--socket"; p |])
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin devnull Unix.stderr
        in
        Unix.close devnull;
        let probe = Client.connect addr in
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec wait_ready () =
          match Client.ping ~budget:0.25 probe with
          | Ok _ -> ()
          | Error _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              die "bench-serve: daemon did not come up within 10 s"
            end
            else begin
              Unix.sleepf 0.02;
              wait_ready ()
            end
        in
        wait_ready ();
        Client.close probe;
        let row = run_measurement ~label ~shm ~nw addr in
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        row
      in
      let shm = transport = `Shm in
      let tcp = transport = `Tcp in
      let base = hosted ~label ~shm ~tcp 1 in
      let main = if workers <= 1 then base else hosted ~label ~shm ~tcp workers in
      (* --transport=shm always measures a loopback-TCP run of the same
         shape in the same process, so the speedup is apples-to-apples:
         same structure, same walk, same worker count, same host *)
      let tcp_row =
        if shm then Some (hosted ~label:"tcp" ~shm:false ~tcp:true workers) else None
      in
      let result =
        (main, (if workers <= 1 then None else Some base), tcp_row)
      in
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
          try Unix.rmdir p with Unix.Unix_error _ -> ()
        end
        else try Sys.remove p with Sys_error _ -> ()
      in
      rm dir;
      result
  in
  let row_fields indent r =
    Printf.sprintf
      "%s\"transport\": %S,\n\
       %s\"workers\": %d,\n\
       %s\"queries_served\": %d,\n\
       %s\"wall_seconds\": %.4f,\n\
       %s\"served_queries_per_sec\": %.0f,\n\
       %s\"request_p50_us\": %.1f,\n\
       %s\"request_p99_us\": %.1f,\n\
       %s\"ring_requests\": %d,\n\
       %s\"mismatches\": %d,\n\
       %s\"errors\": %d,\n\
       %s\"degraded_replies\": %d"
      indent r.bs_transport indent r.bs_workers indent r.bs_served indent r.bs_seconds
      indent r.bs_rate indent r.bs_p50 indent r.bs_p99 indent r.bs_ring
      indent r.bs_mismatches indent r.bs_errors indent r.bs_degraded
  in
  let tail =
    (match baseline with
    | None -> ""
    | Some base ->
      Printf.sprintf
        ",\n\
        \  \"single_worker_baseline\": {\n%s\n  },\n\
        \  \"speedup_vs_single_worker\": %.3f"
        (row_fields "    " base)
        (main_row.bs_rate /. base.bs_rate))
    ^
    match tcp_row with
    | None -> ""
    | Some t ->
      Printf.sprintf
        ",\n\
        \  \"tcp_baseline\": {\n%s\n  },\n\
        \  \"speedup_shm_vs_tcp\": %.3f"
        (row_fields "    " t)
        (main_row.bs_rate /. t.bs_rate)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"circuit\": %S,\n\
      \  \"budget\": %S,\n\
      \  \"clients\": %d,\n\
      \  \"requests_per_client\": %d,\n\
      \  \"batch\": %d,\n\
      \  \"depth\": %d,\n\
      \  \"host_cores\": %d,\n\
       %s%s\n\
       }\n"
      circuit.Circuit.name
      (match budget with Mps_experiments.Experiments.Quick -> "quick" | _ -> "full")
      clients per_client batch depth
      (Domain.recommended_domain_count ())
      (row_fields "  " main_row)
      tail
  in
  (try Persist.atomic_write ~path:out json with Sys_error msg -> die "%s" msg);
  Format.printf "wrote %s@." out;
  let mismatches =
    main_row.bs_mismatches
    + (match baseline with Some b -> b.bs_mismatches | None -> 0)
    + match tcp_row with Some t -> t.bs_mismatches | None -> 0
  in
  if mismatches > 0 then
    die "%d served answers disagreed with the in-process engine" mismatches;
  if transport = `Shm && main_row.bs_ring = 0 then
    die "--transport=shm but no request was served over the ring"

let batch_arg =
  Arg.(
    value
    & opt int 2048
    & info [ "batch" ] ~docv:"N" ~doc:"Queries per batch request.")

let requests_arg =
  Arg.(
    value
    & opt int 256
    & info [ "requests" ] ~docv:"N" ~doc:"Batch requests, split across the clients.")

let clients_arg =
  Arg.(
    value
    & opt int 2
    & info [ "clients" ] ~docv:"N" ~doc:"Client domains generating load.")

let attach_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attach" ] ~docv:"ADDR"
        ~doc:
          "Benchmark a running daemon at $(docv) (a Unix socket path, or \
           $(b,tcp:HOST:PORT)) instead of self-hosting one.  The daemon must serve \
           the same deterministically generated structure, or every answer counts as \
           a mismatch.")

let bench_out_arg =
  Arg.(
    value
    & opt string "BENCH_SERVE.json"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("unix", `Unix); ("tcp", `Tcp); ("shm", `Shm) ]) `Unix
    & info [ "transport" ] ~docv:"KIND"
        ~doc:
          "Transport under test.  $(b,unix) (default): Unix-domain socket.  \
           $(b,tcp): loopback TCP.  $(b,shm): the co-located shared-memory fast \
           path — clients negotiate a per-session ring over a Unix socket and send \
           every batch that fits through it, with the socket's reply bytes coming \
           back on the ring; a loopback-TCP run of the same shape is measured in the same process and the report carries \
           both rows plus $(b,speedup_shm_vs_tcp).")

let depth_arg =
  Arg.(
    value
    & opt int 1
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Requests each client keeps in flight at once.  $(docv) = 1 (default): \
           one blocking request at a time.  $(docv) > 1: pipelined windows of \
           $(docv) requests; the reported per-request latency is each window's \
           wall time split evenly (amortized).")

let bench_workers_arg =
  Arg.(
    value
    & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains in the self-hosted daemon.  With $(docv) > 1 the bench \
           first measures a single-worker baseline and reports the speedup next to \
           it in the JSON.  Ignored (recorded verbatim) with $(b,--attach).")

let bench_serve_cmd =
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Measure end-to-end serving throughput and latency: self-host an mpsd (or \
          $(b,--attach) to one), drive sizing-walk batches from client domains, \
          cross-check every served answer against an in-process engine, and record \
          served queries/sec with p50/p99 request latency in a JSON report.  With \
          $(b,--workers) > 1 a single-worker baseline runs first and the report \
          carries both blocks plus the speedup.  Exits 1 on any mismatch.")
    Term.(
      const bench_serve $ circuit_arg $ budget_arg $ batch_arg $ requests_arg
      $ clients_arg $ bench_workers_arg $ attach_arg $ bench_out_arg $ jobs_arg
      $ transport_arg $ depth_arg)

let () =
  let doc = "multi-placement structures for analog placement (DATE 2005 reproduction)" in
  let info = Cmd.info "mpsgen" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; generate_cmd; query_cmd; verify_cmd; dump_cmd;
            stats_cmd; audit_cmd; repair_cmd; route_cmd; extend_cmd;
            experiments_cmd; serve_cmd; health_cmd; bench_serve_cmd ]))
