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
  ]
