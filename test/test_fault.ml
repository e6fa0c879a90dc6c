(* Chaos suite: seeded fault injection over the persistence stack.

   Every scenario is reproducible from a single integer seed.  The base
   seed comes from the MPS_CHAOS_SEED environment variable when set (CI
   derives it from the date so the fleet walks the seed space), default
   1.  Every family works on the MPSZ container, the one format the
   program reads back.  The invariant under test, for every injected
   fault:

   - no exception other than the typed [Zcodec.Error] / [Sys_error]
     escapes the persistence API;
   - after a faulted save, a fault-free load finds a complete container
     — bit-exact the old or the new serialization, never a torn mix;
   - a container damaged on disk (bit flips, truncation) is either
     refused by the strict load or decodes to the very structure saved,
     and either salvages ({!Repair.salvage}) into a structure whose
     sampled queries all instantiate overlap-free at quality no worse
     than the backup template, or is rejected with a typed error.
*)

open Mps_geometry
open Mps_netlist
open Mps_core
open Mps_fault

let check_bool = Alcotest.(check bool)

let base_seed =
  match Sys.getenv_opt "MPS_CHAOS_SEED" with
  | Some s -> (match int_of_string_opt (String.trim s) with Some v -> v | None -> 1)
  | None -> 1

let circuit = Benchmarks.circ01

let structure = Fixtures.circ01_minimal

(* A second, different structure so old and new serializations differ
   in the save-under-fault family. *)
let structure2 =
  lazy
    (fst
       (Generator.single_walk
          ~config:
            {
              Fixtures.minimal_config with
              Generator.seed = Fixtures.minimal_config.Generator.seed + 17;
            }
          circuit))

let with_tmp_dir f =
  let dir = Filename.temp_file "mps_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let is_typed = function
  | Zcodec.Error _ | Sys_error _ -> true
  | _ -> false

(* Sampled-query legality and quality of a (salvaged) structure: every
   probe instantiates overlap-free, and the mean cost is no worse than
   answering every probe with the backup template re-pack — the §3.1.4
   quality floor. *)
let check_queries_sound tag structure =
  let c = Structure.circuit structure in
  let die_w, die_h = Structure.die structure in
  let bounds = Circuit.dim_bounds c in
  let rng = Mps_rng.Rng.create ~seed:99 in
  let backup = Structure.backup structure in
  let n = 64 in
  let cost_sum = ref 0.0 and floor_sum = ref 0.0 in
  for k = 1 to n do
    let dims = Dimbox.random_dims rng bounds in
    let rects = Structure.instantiate structure dims in
    check_bool
      (Printf.sprintf "%s: query %d overlap-free" tag k)
      true
      (Rect.any_overlap rects = None);
    cost_sum := !cost_sum +. Mps_cost.Cost.total c ~die_w ~die_h rects;
    let floor_rects = Stored.instantiate_repacked backup dims in
    floor_sum := !floor_sum +. Mps_cost.Cost.total c ~die_w ~die_h floor_rects
  done;
  check_bool
    (Printf.sprintf "%s: mean quality no worse than the backup template" tag)
    true
    (!cost_sum <= !floor_sum +. 1e-6)

(* Family A: faults while saving.  The destination must afterwards hold
   a complete old or complete new container. *)
let save_under_fault base scenario () =
  let s = Lazy.force structure in
  let seed = (base * 1000) + scenario in
  let rng = Mps_rng.Rng.create ~seed in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "structure.mpsz" in
      Zcodec.save s ~path;
      let old_doc = Persist.read_file ~path in
      let s2 = Lazy.force structure2 in
      let new_doc = Zcodec.to_string s2 in
      let plan = Fault.random_save_plan rng in
      let result, _fired = Fault.with_plan plan (fun () -> Zcodec.save s2 ~path) in
      (match result with
      | Ok () -> ()
      | Error e ->
        check_bool
          (Printf.sprintf "seed %d: only typed errors escape save (%s)\n%s" seed
             (Printexc.to_string e) (Fault.describe plan))
          true (is_typed e));
      (* fault-free load: a complete container, bit-exact old or new *)
      let doc = Persist.read_file ~path in
      check_bool
        (Printf.sprintf "seed %d: destination is old or new, never torn\n%s" seed
           (Fault.describe plan))
        true
        (doc = old_doc || doc = new_doc);
      ignore (Zcodec.load ~circuit path))

(* Family B: faults while loading.  Only typed errors escape; the file
   itself is untouched, so a fault-free load still succeeds. *)
let load_under_fault base scenario () =
  let s = Lazy.force structure in
  let seed = (base * 1000) + 400 + scenario in
  let rng = Mps_rng.Rng.create ~seed in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "structure.mpsz" in
      Zcodec.save s ~path;
      let before = Persist.read_file ~path in
      let plan = Fault.random_read_plan rng in
      let result, _fired =
        Fault.with_plan plan (fun () -> Zcodec.of_string ~circuit (Persist.read_file ~path))
      in
      (match result with
      | Ok _ -> ()
      | Error e ->
        check_bool
          (Printf.sprintf "seed %d: only typed errors escape load (%s)\n%s" seed
             (Printexc.to_string e) (Fault.describe plan))
          true (is_typed e));
      (* salvage under the same faults must also stay typed *)
      let plan2 = Fault.random_read_plan rng in
      let result2, _ =
        Fault.with_plan plan2 (fun () -> Repair.salvage ~circuit ~path)
      in
      (match result2 with
      | Ok (Result.Ok sv) ->
        check_queries_sound (Printf.sprintf "seed %d" seed) sv.Repair.outcome.Repair.structure
      | Ok (Result.Error _) -> ()
      | Error e ->
        Alcotest.failf "seed %d: salvage let %s escape\n%s" seed (Printexc.to_string e)
          (Fault.describe plan2));
      check_bool
        (Printf.sprintf "seed %d: file untouched by read faults" seed)
        true
        (Persist.read_file ~path = before))

(* Family C: bits flipped on disk from the coordinate pool on (the
   header and the engine sections stay intact, so the records are what
   is hit).  The strict load must refuse (section CRC) or, when every
   flip fell on a bit the int lens drops, decode the very structure
   saved; salvage must hand back a structure that is audit-sound on the
   query side — quarantining what the flips broke — or a typed error. *)
let corruption_salvage base scenario () =
  let s = Lazy.force structure in
  let seed = (base * 1000) + 800 + scenario in
  let raw = Zcodec.to_string s in
  let from =
    let pool =
      List.find
        (fun x -> x.Zcodec.tag = "POOL")
        (Zcodec.of_string ~circuit raw).Zcodec.sections
    in
    8 * pool.Zcodec.off_words
  in
  let flips = 1 + (scenario mod 24) in
  let corrupted = Fault.flip_bits ~seed ~flips ~from raw in
  if corrupted = raw then () (* flips cancelled out: nothing to test *)
  else begin
    (match Zcodec.of_string ~circuit corrupted with
    | v ->
      check_bool
        (Printf.sprintf "seed %d: a verified load is the saved structure" seed)
        true
        (Codec.to_string (Structure.Engine.structure v.Zcodec.engine) = Codec.to_string s)
    | exception Zcodec.Error _ -> ()
    | exception e ->
      Alcotest.failf "seed %d: strict load let %s escape" seed (Printexc.to_string e));
    match Repair.salvage_string ~circuit corrupted with
    | Result.Ok sv ->
      let outcome = sv.Repair.outcome in
      check_bool
        (Printf.sprintf "seed %d: salvage audit has no fatal query finding" seed)
        true
        (not
           (List.exists
              (fun f ->
                f.Audit.severity = Audit.Fatal
                && (f.Audit.code = "query-overlap" || f.Audit.code = "query-exception"))
              outcome.Repair.after.Audit.findings));
      check_queries_sound (Printf.sprintf "seed %d" seed) outcome.Repair.structure
    | Result.Error _ -> () (* typed rejection is an acceptable outcome *)
    | exception e ->
      Alcotest.failf "seed %d: salvage let %s escape" seed (Printexc.to_string e)
  end

(* Family C's flips over base seeds 1-40 at once: whatever the flips do
   to a record (a box bound of zero or past 2^30 included), salvage
   either returns or refuses with a typed error — no exception escapes.
   Soundness is Family C's own check, per base seed. *)
let corruption_never_escapes () =
  let raw = Zcodec.to_string (Lazy.force structure) in
  let from =
    8
    * (List.find
         (fun x -> x.Zcodec.tag = "POOL")
         (Zcodec.of_string ~circuit raw).Zcodec.sections)
        .Zcodec.off_words
  in
  for base = 1 to 40 do
    for scenario = 0 to 15 do
      let seed = (base * 1000) + 800 + scenario in
      let corrupted = Fault.flip_bits ~seed ~flips:(1 + (scenario mod 24)) ~from raw in
      match Repair.salvage_string ~circuit corrupted with
      | Result.Ok _ | Result.Error _ -> ()
      | exception e ->
        Alcotest.failf "seed %d: salvage let %s escape" seed (Printexc.to_string e)
    done
  done

(* Family D: truncation at a seeded point; the strict load refuses, and
   salvage recovers the whole records before the cut as a sound
   structure or rejects with a typed error. *)
let truncation_salvage base scenario () =
  let s = Lazy.force structure in
  let seed = (base * 1000) + 1200 + scenario in
  let rng = Mps_rng.Rng.create ~seed in
  let raw = Zcodec.to_string s in
  let cut = Mps_rng.Rng.int rng (String.length raw) in
  let truncated = String.sub raw 0 cut in
  (match Zcodec.of_string ~circuit truncated with
  | _ -> Alcotest.failf "seed %d: strict load accepted a truncation" seed
  | exception Zcodec.Error _ -> ()
  | exception e ->
    Alcotest.failf "seed %d: strict load let %s escape" seed (Printexc.to_string e));
  match Repair.salvage_string ~circuit truncated with
  | Result.Ok sv ->
    check_queries_sound (Printf.sprintf "seed %d" seed) sv.Repair.outcome.Repair.structure
  | Result.Error _ -> ()
  | exception e ->
    Alcotest.failf "seed %d: salvage let %s escape" seed (Printexc.to_string e)

(* Family E: the file is gone entirely. *)
let missing_file () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "absent.mpsz" in
      (match Zcodec.load ~circuit path with
      | _ -> Alcotest.fail "load of a missing file succeeded"
      | exception Zcodec.Error (Zcodec.Io_error _) -> ()
      | exception e -> Alcotest.failf "missing file let %s escape" (Printexc.to_string e));
      match Repair.salvage ~circuit ~path with
      | Result.Error (Zcodec.Io_error _) -> ()
      | Result.Error e -> Alcotest.failf "unexpected error %s" (Zcodec.error_to_string e)
      | Result.Ok _ -> Alcotest.fail "salvage of a missing file succeeded")

(* Query answering is total: out-of-domain vectors get the typed
   [Out_of_domain] answer and a legal backup floorplan, no exception. *)
let out_of_domain_total () =
  let s = Lazy.force structure in
  let c = Structure.circuit s in
  let huge =
    Dims.of_pairs
      (Array.init (Circuit.n_blocks c) (fun _ -> (100_000, 100_000)))
  in
  (match Structure.query s huge with
  | Structure.Out_of_domain, st ->
    check_bool "backup answers" true (st == Structure.backup s)
  | _ -> Alcotest.fail "expected Out_of_domain");
  let rects = Structure.instantiate s huge in
  check_bool "out-of-domain floorplan overlap-free" true (Rect.any_overlap rects = None)

(* Family F: faults on the MPSZ zero-copy path.  The serving pattern
   under test is the one Serve.Store runs: map the container, and on
   any typed failure salvage the container's own record table — never
   a crash, never a silently wrong structure. *)

let save_container dir =
  let s = Lazy.force structure in
  let zpath = Filename.concat dir "structure.mpsz" in
  Zcodec.save s ~path:zpath;
  (s, zpath)

let load_or_salvage zpath =
  match Zcodec.load ~circuit zpath with
  | v -> `Mapped v
  | exception Zcodec.Error _ -> `Salvaged (Repair.salvage ~circuit ~path:zpath)

(* Every Map action — failed mapping, vanished file, truncated view
   (lost tail, section table and all), seeded flips, a stall — either
   yields a verified view of the exact structure, or a typed error
   followed by a salvage that is sound or typed. *)
let mmap_fault_salvages base scenario () =
  let seed = (base * 1000) + 1600 + scenario in
  let action =
    match scenario mod 7 with
    | 0 -> Fault.Fail
    | 1 -> Fault.Vanish
    | 2 -> Fault.Stall 0.005
    | 3 -> Fault.Truncate 0.05  (* barely a header: lost section table *)
    | 4 -> Fault.Truncate 0.8  (* lost tail: records cut mid-stride *)
    | 5 -> Fault.Corrupt 1
    | _ -> Fault.Corrupt (1 + (scenario mod 13))
  in
  let plan = [ { Fault.op = Fault.Map; skip = 0; action; seed } ] in
  with_tmp_dir (fun dir ->
      let s, zpath = save_container dir in
      let result, fired = Fault.with_plan plan (fun () -> load_or_salvage zpath) in
      check_bool (Printf.sprintf "seed %d: map fault injected" seed) true (fired = 1);
      match result with
      | Error e ->
        Alcotest.failf "seed %d: %s escaped the salvaging loader\n%s" seed
          (Printexc.to_string e) (Fault.describe plan)
      | Ok (`Mapped v) ->
        (* a stall proceeds normally; seeded flips may cancel
           pairwise, and every word is CRC-covered, so a verified
           mapping is provably undamaged — the exactness check below
           confirms it.  Fail/Vanish/Truncate can never verify. *)
        (match action with
        | Fault.Stall _ | Fault.Corrupt _ -> ()
        | _ ->
          Alcotest.failf "seed %d: damaged mapping verified\n%s" seed
            (Fault.describe plan));
        check_bool
          (Printf.sprintf "seed %d: verified view serves the exact structure" seed)
          true
          (Codec.to_string (Structure.Engine.structure v.Zcodec.engine)
          = Codec.to_string s)
      | Ok (`Salvaged outcome) -> (
        (match action with
        | Fault.Stall _ ->
          Alcotest.failf "seed %d: a stalled mapping was refused\n%s" seed
            (Fault.describe plan)
        | _ -> ());
        match outcome with
        | Result.Ok sv ->
          check_queries_sound (Printf.sprintf "seed %d salvage" seed)
            sv.Repair.outcome.Repair.structure
        | Result.Error _ -> () (* typed *)))

(* Damage landing under an already-verified mapping: queries may go
   wrong but must stay in-bounds and crash-free, and a re-verification
   of the same words must detect the damage.  The session is warm
   first (a sizing walk fills its row memo, raw-fill and re-pack
   state from the healthy words), and the walk goes on through
   [instantiate_into] after the flips. *)
let flip_under_active_mapping base scenario () =
  let seed = (base * 1000) + 2000 + scenario in
  with_tmp_dir (fun dir ->
      let s, zpath = save_container dir in
      let walk = Test_engine.sizing_walk (Mps_rng.Rng.create ~seed:(seed + 1)) s ~n:1024 in
      let mapping = ref None in
      let io =
        {
          Persist.default_io with
          Persist.map_words =
            (fun p ->
              let w, b = Persist.default_io.Persist.map_words p in
              mapping := Some (w, b);
              (w, b));
        }
      in
      let view = Persist.with_io io (fun () -> Zcodec.load ~circuit zpath) in
      let words, bytes =
        match !mapping with Some wb -> wb | None -> Alcotest.fail "no mapping seen"
      in
      let engine = view.Zcodec.engine in
      let session = Structure.Engine.new_session () in
      let n_blocks = Circuit.n_blocks circuit in
      Array.iteri
        (fun k dims ->
          if k < 512 then ignore (Structure.Engine.instantiate_into engine session dims))
        walk;
      (* the mapping is private (copy-on-write): flipping words damages
         what the engine reads without touching the file *)
      Fault.flip_words ~seed ~flips:(1 + (scenario * 3)) words;
      let bounds = Circuit.dim_bounds circuit in
      let rng = Mps_rng.Rng.create ~seed in
      let capacity = view.Zcodec.n_stored in
      Array.iteri
        (fun k dims ->
          if k >= 512 then
            match
              ( Structure.Engine.query_id engine session dims,
                Structure.Engine.instantiate_into engine session dims )
            with
            | id, rects ->
              check_bool
                (Printf.sprintf "seed %d: walk step %d stays in-bounds" seed k)
                true
                (id >= -2 && id < capacity);
              check_bool
                (Printf.sprintf "seed %d: walk step %d keeps %d rects" seed k n_blocks)
                true
                (Array.length rects = n_blocks)
            | exception e ->
              Alcotest.failf "seed %d: walk step %d let %s escape" seed k
                (Printexc.to_string e))
        walk;
      for k = 1 to 500 do
        let dims = Dimbox.random_dims rng bounds in
        (* answers may be wrong under live corruption; they must stay
           in-bounds and exception-free *)
        let id = Structure.Engine.query_id engine session dims in
        check_bool
          (Printf.sprintf "seed %d: query %d stays in-bounds" seed k)
          true
          (id >= -2 && id < capacity)
      done;
      (* ... and the damage is detectable on the same words *)
      match Zcodec.salvage_parts ~circuit words ~bytes with
      | Result.Ok r ->
        check_bool
          (Printf.sprintf "seed %d: re-verification flags the flips" seed)
          false r.Zcodec.r_crc_ok
      | Result.Error _ -> () (* flips hit the header: typed rejection *)
      | exception e ->
        Alcotest.failf "seed %d: re-verification let %s escape" seed
          (Printexc.to_string e))

(* A container cut off inside the header or section table is a typed
   [Corrupt], not a parse backtrace. *)
let truncated_section_table base scenario () =
  let seed = (base * 1000) + 2400 + scenario in
  let s = Lazy.force structure in
  let raw = Zcodec.to_string s in
  let rng = Mps_rng.Rng.create ~seed in
  (* cut inside the fixed header + table region (first ~70 words) *)
  let cut = 8 * (1 + Mps_rng.Rng.int rng 70) in
  let truncated = String.sub raw 0 (min cut (String.length raw - 8)) in
  (match Zcodec.of_string ~circuit truncated with
  | _ -> Alcotest.failf "seed %d: truncated table accepted" seed
  | exception Zcodec.Error (Zcodec.Corrupt _) -> ()
  | exception e ->
    Alcotest.failf "seed %d: truncation let %s escape" seed (Printexc.to_string e));
  match
    Zcodec.salvage_parts ~circuit
      (Zcodec.words_of_string truncated)
      ~bytes:(String.length truncated)
  with
  | Result.Ok _ | Result.Error (Zcodec.Corrupt _) | Result.Error (Zcodec.Circuit_mismatch _) -> ()
  | Result.Error (Zcodec.Io_error _) -> ()
  | exception e ->
    Alcotest.failf "seed %d: salvage of truncation let %s escape" seed
      (Printexc.to_string e)

let scenarios prefix n f =
  List.init n (fun k ->
      Alcotest.test_case (Printf.sprintf "%s %02d" prefix k) `Quick (f base_seed k))

(* Seeds whose salvage once answered worse than the backup template:
   bit flips that left template-like pieces with other coordinates (or
   kept them after the backup was replaced or lost), and read faults
   under salvage.  Each replays through its own family at every base
   seed. *)
let regression_seeds () =
  List.iter
    (fun seed ->
      let base = seed / 1000 and offset = seed mod 1000 in
      if offset >= 800 then corruption_salvage base (offset - 800) ()
      else load_under_fault base (offset - 400) ())
    [
      8805; 10801; 18809; 20814; 25801; 25803; 26803; 27801; 29808; 36815; 37805; 37807;
      18404; 28401; 40406;
    ]

let suite =
  scenarios "chaos save" 20 save_under_fault
  @ scenarios "chaos load" 12 load_under_fault
  @ scenarios "chaos bit-flip" 16 corruption_salvage
  @ scenarios "chaos truncate" 10 truncation_salvage
  @ scenarios "chaos mmap" 14 mmap_fault_salvages
  @ scenarios "chaos live-flip" 6 flip_under_active_mapping
  @ scenarios "chaos zheader-cut" 8 truncated_section_table
  @ [
      Alcotest.test_case "chaos bit-flip sweep: no untyped escape" `Quick
        corruption_never_escapes;
      Alcotest.test_case "missing file is a typed error" `Quick missing_file;
      Alcotest.test_case "out-of-domain query is total" `Quick out_of_domain_total;
      Alcotest.test_case "chaos regression seeds" `Quick regression_seeds;
    ]
