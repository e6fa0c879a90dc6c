(* Tests for the invariant auditor and the quarantine/repair pass:
   freshly generated structures across all nine Table 1 benchmarks must
   come out audit-clean, seeded corruption must be detected with the
   right severity, and repair must drive a flawed structure back to a
   clean report. *)

open Mps_geometry
open Mps_netlist
open Mps_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let structures = Fixtures.structures

let for_all f () = List.iter (fun (c, s) -> f c s) (Lazy.force structures)

(* Satellite: the generator's output re-proves every invariant. *)
let test_fresh_structures_audit_clean c structure =
  let report = Audit.run structure in
  check_bool
    (Printf.sprintf "%s: fresh structure audit-clean\n%s" c.Circuit.name
       (Audit.to_string report))
    true (Audit.clean report)

let test_boxes_pairwise_disjoint c structure =
  let ps = Structure.placements structure in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            check_bool
              (Printf.sprintf "%s: boxes %d/%d disjoint" c.Circuit.name i j)
              true
              (not (Dimbox.overlaps a.Stored.box b.Stored.box)))
        ps)
    ps

let test_coverage_agreement c structure =
  let exact = Structure.coverage structure in
  let sampled = Structure.coverage_sampled ~seed:5 ~samples:4000 structure in
  check_bool
    (Printf.sprintf "%s: sampled coverage %.3f agrees with exact %.3f" c.Circuit.name
       sampled exact)
    true
    (Float.abs (sampled -. exact) < 0.05)

(* Build a structure with one deliberately poisoned stored placement:
   [Structure.of_placements] validates box disjointness but trusts
   coordinates and costs, exactly the trust the auditor exists to
   re-check. *)
let poisoned_structure poison =
  let s = snd (List.hd (Lazy.force structures)) in
  let circuit = Structure.circuit s in
  let stored = Structure.placements s in
  stored.(0) <- poison stored.(0);
  Structure.of_placements ~backup:(Structure.backup s) circuit stored

let find_code code report =
  List.exists (fun f -> f.Audit.code = code) report.Audit.findings

let test_detects_cost_drift () =
  let s =
    poisoned_structure (fun p -> { p with Stored.best_cost = p.Stored.best_cost +. 500.0 })
  in
  let report = Audit.run s in
  check_bool "flags best-cost-drift" true (find_code "best-cost-drift" report);
  check_bool "not clean" false (Audit.clean report);
  check_bool "worst is Degraded" true (Audit.worst report = Some Audit.Degraded)

let test_detects_illegal_coords () =
  let s =
    poisoned_structure (fun p ->
        (* pile every block onto the same corner: overlapping floorplan *)
        let placement =
          {
            p.Stored.placement with
            Mps_placement.Placement.coords =
              Array.map (fun _ -> (0, 0)) p.Stored.placement.Mps_placement.Placement.coords;
          }
        in
        { p with Stored.placement })
  in
  let report = Audit.run s in
  if Stored.n_blocks (Structure.backup s) > 1 then begin
    check_bool "flags illegal-floorplan" true (find_code "illegal-floorplan" report);
    check_bool "worst is Fatal" true (Audit.worst report = Some Audit.Fatal)
  end

let test_detects_nonfinite_cost () =
  let s = poisoned_structure (fun p -> { p with Stored.avg_cost = Float.nan }) in
  let report = Audit.run s in
  check_bool "flags non-finite-cost" true (find_code "non-finite-cost" report)

let test_repair_restores_clean () =
  let s =
    poisoned_structure (fun p -> { p with Stored.best_cost = p.Stored.best_cost +. 500.0 })
  in
  let outcome = Repair.run s in
  check_bool "before is flawed" false (Audit.clean outcome.Repair.before);
  check_bool
    (Printf.sprintf "after is clean\n%s" (Audit.to_string outcome.Repair.after))
    true
    (Repair.clean outcome);
  check_bool "repaired in place, not quarantined" true
    (outcome.Repair.repaired_in_place >= 1 && outcome.Repair.quarantined = [])

let test_repair_quarantines_illegal () =
  let s0 = snd (List.hd (Lazy.force structures)) in
  if Stored.n_blocks (Structure.backup s0) > 1 then begin
    let s =
      poisoned_structure (fun p ->
          let placement =
            {
              p.Stored.placement with
              Mps_placement.Placement.coords =
                Array.map
                  (fun _ -> (0, 0))
                  p.Stored.placement.Mps_placement.Placement.coords;
            }
          in
          { p with Stored.placement })
    in
    let outcome = Repair.run s in
    check_bool "poisoned placement quarantined" true
      (List.mem 0 outcome.Repair.quarantined);
    check_bool
      (Printf.sprintf "after repair no fatal finding\n%s"
         (Audit.to_string outcome.Repair.after))
      true
      (Audit.count Audit.Fatal outcome.Repair.after = 0);
    check_int "one fewer placement served" (Structure.n_placements s - 1)
      (Structure.n_placements outcome.Repair.structure)
  end

(* A stored box no dimension vector can reach (its first axis [0,0])
   makes the per-placement check raise.  The auditor turns that into a
   Fatal finding on the placement, so repair quarantines it instead of
   raising. *)
let test_repair_quarantines_unauditable_box () =
  let circuit = Benchmarks.circ01 in
  let config = Mps_experiments.Experiments.(generator_config Quick circuit) in
  let s = fst (Generator.single_walk ~config circuit) in
  let stored = Structure.placements s in
  let p = stored.(0) in
  let axis = List.hd (Dimbox.axes p.Stored.box) in
  stored.(0) <- { p with Stored.box = Dimbox.with_axis p.Stored.box axis (Interval.make 0 0) };
  let poisoned = Structure.of_placements ~backup:(Structure.backup s) circuit stored in
  let outcome = Repair.run poisoned in
  check_bool "audit-exception reported" true
    (List.exists
       (fun f -> f.Audit.code = "audit-exception" && f.Audit.subject = Audit.Placement 0)
       outcome.Repair.before.Audit.findings);
  check_bool "placement 0 quarantined" true (List.mem 0 outcome.Repair.quarantined);
  check_int "one fewer placement served" (Array.length stored - 1)
    (Structure.n_placements outcome.Repair.structure)

let test_repair_noop_on_clean () =
  let s = snd (List.hd (Lazy.force structures)) in
  let outcome = Repair.run s in
  check_bool "clean input returned unchanged" true (outcome.Repair.structure == s);
  check_bool "no quarantine" true (outcome.Repair.quarantined = [])

let test_lenient_drops_overlapping () =
  let s = snd (List.hd (Lazy.force structures)) in
  let circuit = Structure.circuit s in
  let stored = Structure.placements s in
  if Array.length stored >= 2 then begin
    (* duplicate a box so eq. 5 would break; strict compile refuses *)
    let clash = { stored.(1) with Stored.box = stored.(0).Stored.box } in
    let tampered = Array.copy stored in
    tampered.(1) <- clash;
    (match Structure.of_placements ~backup:(Structure.backup s) circuit tampered with
    | _ -> Alcotest.fail "strict of_placements accepted overlapping boxes"
    | exception Invalid_argument _ -> ());
    let lenient, dropped =
      Structure.of_placements_lenient ~backup:(Structure.backup s) circuit tampered
    in
    check_int "exactly one quarantined" 1 (List.length dropped);
    check_bool "survivor set is one smaller" true
      (Structure.n_placements lenient = Array.length stored - 1)
  end

let test_report_json_shape () =
  let s = snd (List.hd (Lazy.force structures)) in
  let json = Audit.to_json (Audit.run s) in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "json mentions %s" needle) true
        (let n = String.length needle and len = String.length json in
         let rec find i =
           i + n <= len && (String.sub json i n = needle || find (i + 1))
         in
         find 0))
    [ "\"clean\": true"; "\"findings\""; "\"fatal\": 0" ]

(* A template-like piece is backup territory: it must carry the
   backup's placement.  One carrying another placement's coordinates
   instead is Fatal, and repair drops it, leaving its territory to the
   backup. *)
let test_repair_drops_foreign_template_piece () =
  let with_piece =
    List.find_map
      (fun (_, s) ->
        let stored = Structure.placements s in
        let backup = (Structure.backup s).Stored.placement in
        match
          ( Array.find_index (fun x -> x.Stored.template_like) stored,
            Array.find_index
              (fun x -> not (Mps_placement.Placement.equal x.Stored.placement backup))
              stored )
        with
        | Some piece, Some other -> Some (s, stored, piece, other)
        | _ -> None)
      (Lazy.force structures)
  in
  let s, stored, piece, other = Option.get with_piece in
  let circuit = Structure.circuit s in
  stored.(piece) <-
    { (stored.(piece)) with Stored.placement = stored.(other).Stored.placement };
  let poisoned = Structure.of_placements ~backup:(Structure.backup s) circuit stored in
  let outcome = Repair.run poisoned in
  check_bool "template-piece-not-backup reported on the piece" true
    (List.exists
       (fun f ->
         f.Audit.code = "template-piece-not-backup"
         && f.Audit.subject = Audit.Placement piece
         && f.Audit.severity = Audit.Fatal)
       outcome.Repair.before.Audit.findings);
  check_bool "the piece is quarantined" true (List.mem piece outcome.Repair.quarantined);
  check_bool
    (Printf.sprintf "repaired structure is clean\n%s" (Audit.to_string outcome.Repair.after))
    true (Repair.clean outcome);
  let backup = Structure.backup outcome.Repair.structure in
  check_bool "every template-like piece left carries the backup's placement" true
    (Array.for_all
       (fun x ->
         (not x.Stored.template_like)
         || Mps_placement.Placement.equal x.Stored.placement backup.Stored.placement)
       (Structure.placements outcome.Repair.structure))

(* A broken backup that no survivor can stand in for is rebuilt by the
   generator's backup builder, identically with or without a pool. *)
let test_repair_rebuilds_backup () =
  let s = snd (List.hd (Lazy.force structures)) in
  let circuit = Structure.circuit s in
  let b = Structure.backup s in
  if Stored.n_blocks b > 1 then begin
    let piled =
      {
        b with
        Stored.placement =
          {
            b.Stored.placement with
            Mps_placement.Placement.coords =
              Array.map (fun _ -> (0, 0)) b.Stored.placement.Mps_placement.Placement.coords;
          };
      }
    in
    let broken = Structure.of_placements ~backup:piled circuit [| piled |] in
    let outcome = Repair.run broken in
    check_bool "backup rebuilt" true outcome.Repair.backup_rebuilt;
    check_bool
      (Printf.sprintf "rebuilt structure is clean\n%s"
         (Audit.to_string outcome.Repair.after))
      true (Repair.clean outcome);
    (* [generate] builds the same backup; one placement stops its walks *)
    let generated =
      Structure.backup
        (fst
           (Generator.generate ~jobs:1
              ~config:{ Generator.default_config with Generator.max_placements = 1 }
              circuit))
    in
    check_bool "the new backup is generate's" true
      (Codec.to_string (Structure.of_placements circuit [| generated |])
      = Codec.to_string
          (Structure.of_placements circuit [| Structure.backup outcome.Repair.structure |]));
    Mps_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        check_bool "pooled rebuild is identical" true
          (Codec.to_string (Repair.run ~pool broken).Repair.structure
          = Codec.to_string outcome.Repair.structure))
  end

let suite =
  [
    Alcotest.test_case "all benchmarks: fresh structures audit-clean" `Quick
      (for_all test_fresh_structures_audit_clean);
    Alcotest.test_case "all benchmarks: boxes pairwise disjoint" `Quick
      (for_all test_boxes_pairwise_disjoint);
    Alcotest.test_case "all benchmarks: coverage agrees with sampled" `Quick
      (for_all test_coverage_agreement);
    Alcotest.test_case "audit detects cost drift" `Quick test_detects_cost_drift;
    Alcotest.test_case "audit detects illegal coordinates" `Quick
      test_detects_illegal_coords;
    Alcotest.test_case "audit detects non-finite costs" `Quick test_detects_nonfinite_cost;
    Alcotest.test_case "repair restores a clean report" `Quick test_repair_restores_clean;
    Alcotest.test_case "repair quarantines illegal placements" `Quick
      test_repair_quarantines_illegal;
    Alcotest.test_case "repair is a no-op on clean input" `Quick test_repair_noop_on_clean;
    Alcotest.test_case "lenient compile quarantines overlapping boxes" `Quick
      test_lenient_drops_overlapping;
    Alcotest.test_case "audit report serializes to json" `Quick test_report_json_shape;
    Alcotest.test_case "repair quarantines a box whose audit raises" `Quick
      test_repair_quarantines_unauditable_box;
    Alcotest.test_case "repair drops a template piece not carrying the backup" `Quick
      test_repair_drops_foreign_template_piece;
    Alcotest.test_case "repair rebuilds a backup no survivor replaces" `Quick
      test_repair_rebuilds_backup;
  ]
