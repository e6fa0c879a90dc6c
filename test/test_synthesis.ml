(* Tests for the op-amp performance model and the layout-inclusive
   synthesis loop. *)

open Mps_netlist
open Mps_core
open Mps_synthesis

let check_bool = Alcotest.(check bool)

let process = Mps_modgen.Process.default
let circuit = lazy (Opamp.circuit process)
let hpwl_performance = Opamp.model.Synth_loop.performance Synth_loop.Hpwl_estimate

let test_circuit_shape () =
  let c = Lazy.force circuit in
  Alcotest.(check int) "five blocks" 5 (Circuit.n_blocks c);
  Alcotest.(check int) "nine nets" 9 (Circuit.n_nets c);
  Alcotest.(check int) "22 terminals" 22 (Circuit.n_terminals c)

let test_sizing_clamp () =
  let s = { Opamp.w1_um = 1000.0; w3_um = 0.1; w5_um = 10.0; w6_um = 20.0; cc_ff = 1e9 } in
  let c = Opamp.clamp_sizing s in
  check_bool "w1 clamped to hi" true (c.Opamp.w1_um = Opamp.sizing_hi.Opamp.w1_um);
  check_bool "w3 clamped to lo" true (c.Opamp.w3_um = Opamp.sizing_lo.Opamp.w3_um);
  check_bool "w5 untouched" true (c.Opamp.w5_um = 10.0);
  check_bool "cc clamped" true (c.Opamp.cc_ff = Opamp.sizing_hi.Opamp.cc_ff)

let test_nominal_inside_bounds () =
  let n = Opamp.nominal_sizing in
  check_bool "nominal is its own clamp" true (Opamp.clamp_sizing n = n)

let test_dims_within_circuit_bounds () =
  let c = Lazy.force circuit in
  let sizings =
    [
      Opamp.sizing_lo;
      Opamp.sizing_hi;
      Opamp.nominal_sizing;
      { Opamp.w1_um = 11.3; w3_um = 29.0; w5_um = 3.7; w6_um = 77.0; cc_ff = 345.0 };
    ]
  in
  List.iter
    (fun s -> check_bool "dims valid" true (Circuit.dims_valid c (Opamp.dims process c s)))
    sizings

let test_devices_order () =
  let devs = Opamp.devices Opamp.nominal_sizing in
  Alcotest.(check int) "five devices" 5 (Array.length devs);
  check_bool "cap last" true
    (match devs.(4) with Mps_modgen.Device.Capacitor _ -> true | _ -> false)

let perf_at sizing =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let dims = Opamp.dims process c sizing in
  let rng = Mps_rng.Rng.create ~seed:3 in
  let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
  (* shrink dims to legal if needed: use min dims for placement legality *)
  let rects =
    if Mps_placement.Placement.is_legal p dims then Mps_placement.Placement.rects p dims
    else Mps_placement.Repack.instantiate ~die:(die_w, die_h) ~coords:p.Mps_placement.Placement.coords dims
  in
  hpwl_performance process c ~die_w ~die_h sizing rects

let test_performance_monotonicity () =
  let base = Opamp.nominal_sizing in
  let p0 = perf_at base in
  (* more compensation cap -> lower GBW and slew *)
  let p_cap = perf_at { base with Opamp.cc_ff = base.Opamp.cc_ff *. 3.0 } in
  check_bool "cap reduces GBW" true (p_cap.Synth_loop.gbw_mhz < p0.Synth_loop.gbw_mhz);
  check_bool "cap reduces slew" true (p_cap.Synth_loop.slew_v_per_us < p0.Synth_loop.slew_v_per_us);
  (* more tail current -> more power *)
  let p_tail = perf_at { base with Opamp.w5_um = base.Opamp.w5_um *. 2.0 } in
  check_bool "tail increases power" true (p_tail.Synth_loop.power_mw > p0.Synth_loop.power_mw)

let test_wire_cap_feedback () =
  (* a floorplan with longer wires must report more parasitic cap and
     less bandwidth at the same sizing *)
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let sizing = Opamp.nominal_sizing in
  let dims = Opamp.dims process c sizing in
  let compact = Mps_placement.Repack.instantiate ~die:(die_w, die_h)
      ~coords:(Array.make (Circuit.n_blocks c) (0, 0)) dims
  in
  let corners =
    [| (0, 0); (die_w - 200, die_h - 200); (0, die_h - 200); (die_w - 200, 0); (die_w / 2, 0) |]
  in
  let spread = Mps_placement.Repack.instantiate ~die:(die_w, die_h) ~coords:corners dims in
  let p_compact = hpwl_performance process c ~die_w ~die_h sizing compact in
  let p_spread = hpwl_performance process c ~die_w ~die_h sizing spread in
  check_bool "spread has more wire cap" true
    (p_spread.Synth_loop.wire_cap_ff > p_compact.Synth_loop.wire_cap_ff);
  check_bool "spread has less GBW" true (p_spread.Synth_loop.gbw_mhz < p_compact.Synth_loop.gbw_mhz)

let test_spec_cost () =
  let good =
    { Synth_loop.gain_db = 80.0; gbw_mhz = 10.0; slew_v_per_us = 5.0; power_mw = 1.0;
      wire_cap_ff = 100.0; area = 10_000 }
  in
  let bad = { good with Synth_loop.gain_db = 30.0 } in
  let spec = Opamp.model.Synth_loop.spec in
  check_bool "good meets spec" true (Synth_loop.meets_spec spec good);
  check_bool "bad fails spec" false (Synth_loop.meets_spec spec bad);
  check_bool "violation dominates" true
    (Synth_loop.spec_cost spec bad > Synth_loop.spec_cost spec good +. 10.0)

let quick_structure =
  lazy
    (let c = Lazy.force circuit in
     fst (Generator.single_walk ~config:Generator.fast_config c))

let run_loop placer =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let config = { Synth_loop.default_config with iterations = 25 } in
  Synth_loop.run ~config Opamp.model process c ~die_w ~die_h placer

let test_loop_mps () =
  let r = run_loop (Synth_loop.mps_placer (Lazy.force quick_structure)) in
  check_bool "evaluations" true (r.Synth_loop.evaluations = 26);
  check_bool "history monotone" true
    (let ok = ref true in
     Array.iteri
       (fun i c -> if i > 0 && c > r.Synth_loop.history.(i - 1) +. 1e-9 then ok := false)
       r.Synth_loop.history;
     !ok);
  check_bool "best cost finite" true (Float.is_finite r.Synth_loop.best_cost);
  check_bool "placement time <= total" true
    (r.Synth_loop.placement_seconds <= r.Synth_loop.total_seconds)

let test_loop_template () =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let rng = Mps_rng.Rng.create ~seed:2 in
  let template =
    Mps_baselines.Template_placer.build ~iterations:800 ~rng c ~die_w ~die_h
  in
  let r = run_loop (Synth_loop.template_placer template) in
  check_bool "finishes" true (Float.is_finite r.Synth_loop.best_cost)

let test_loop_deterministic () =
  let placer = Synth_loop.mps_placer (Lazy.force quick_structure) in
  let a = run_loop placer and b = run_loop placer in
  Alcotest.(check (float 1e-12)) "same best cost" a.Synth_loop.best_cost b.Synth_loop.best_cost;
  check_bool "same best sizing" true (a.Synth_loop.best_sizing = b.Synth_loop.best_sizing)

let test_loop_best_perf_matches_cost () =
  let r = run_loop (Synth_loop.mps_placer (Lazy.force quick_structure)) in
  let recomputed = Synth_loop.spec_cost Opamp.model.Synth_loop.spec r.Synth_loop.best_perf in
  Alcotest.(check (float 1e-9)) "cost consistent" r.Synth_loop.best_cost recomputed

let test_loop_aspect_hints () =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let config =
    { Synth_loop.default_config with iterations = 40; optimize_aspect = true }
  in
  let r =
    Synth_loop.run ~config Opamp.model process c ~die_w ~die_h
      (Synth_loop.mps_placer (Lazy.force quick_structure))
  in
  Alcotest.(check int) "one hint per block" (Circuit.n_blocks c)
    (Array.length r.Synth_loop.best_aspect_hints);
  Array.iter
    (fun h -> check_bool "hint within bounds" true (h >= 0.25 && h <= 4.0))
    r.Synth_loop.best_aspect_hints

let test_loop_aspect_off_keeps_unit_hints () =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let config =
    { Synth_loop.default_config with iterations = 15; optimize_aspect = false }
  in
  let r =
    Synth_loop.run ~config Opamp.model process c ~die_w ~die_h
      (Synth_loop.mps_placer (Lazy.force quick_structure))
  in
  check_bool "hints stay at 1.0" true
    (Array.for_all (fun h -> h = 1.0) r.Synth_loop.best_aspect_hints)

let test_dims_aspect_hint_changes_shape () =
  let c = Lazy.force circuit in
  let wide = Opamp.dims ~aspect_hints:[| 4.0; 4.0; 4.0; 4.0; 4.0 |] process c Opamp.nominal_sizing in
  let tall = Opamp.dims ~aspect_hints:[| 0.25; 0.25; 0.25; 0.25; 0.25 |] process c Opamp.nominal_sizing in
  let ratio dims i =
    float_of_int (Mps_geometry.Dims.width dims i) /. float_of_int (Mps_geometry.Dims.height dims i)
  in
  (* at least the MOS blocks (0..3) follow the hint direction *)
  let follows = ref 0 in
  for i = 0 to 3 do
    if ratio wide i >= ratio tall i then incr follows
  done;
  check_bool "hints steer block shapes" true (!follows >= 3)

let test_loop_runs_on_salvaged_structure () =
  (* graceful degradation end to end: truncate a saved container inside
     its record table, salvage what is left, and drive the full
     synthesis loop with the salvaged structure — it must still produce
     finite costs and overlap-free floorplans *)
  let c = Lazy.force circuit in
  let s = Lazy.force quick_structure in
  let raw = Zcodec.to_string s in
  let plct =
    List.find (fun x -> x.Zcodec.tag = "PLCT") (Zcodec.of_string ~circuit:c raw).Zcodec.sections
  in
  let cut = plct.Zcodec.off_words + (plct.Zcodec.len_words / 2) in
  match Repair.salvage_string ~circuit:c (String.sub raw 0 (8 * cut)) with
  | Error e -> Alcotest.fail (Zcodec.error_to_string e)
  | Ok sv ->
    check_bool "salvage lost something" true
      (sv.Repair.recovered < Structure.n_placements s);
    let placer = Synth_loop.mps_placer sv.Repair.outcome.Repair.structure in
    let r = run_loop placer in
    check_bool "salvaged loop finishes" true (Float.is_finite r.Synth_loop.best_cost);
    (* the winning floorplan is still a legal placement *)
    let best_dims = Opamp.dims ~aspect_hints:r.Synth_loop.best_aspect_hints process c
        r.Synth_loop.best_sizing
    in
    check_bool "salvaged floorplan overlap-free" true
      (Mps_geometry.Rect.any_overlap (placer.Synth_loop.place best_dims) = None)

let test_dims_mismatched_circuit () =
  (* the synth circuit and the Table 1 benchmark circuit differ in
     designer bounds; dims clamp into whichever circuit is passed *)
  let c = Lazy.force circuit in
  let dims = Opamp.dims process c Opamp.sizing_hi in
  check_bool "valid for synth circuit" true (Circuit.dims_valid c dims)

(* Both models bound their blocks for the process they are given: at a
   finer grid than the default, no sizing in range gets clamped. *)
let test_bounds_follow_process () =
  let p =
    { process with Mps_modgen.Process.grid_nm = process.Mps_modgen.Process.grid_nm / 2 }
  in
  let unclamped label circuit dims devices s =
    let devs = devices s in
    let raw =
      Mps_modgen.Module_gen.dims_of_devices p devs
        ~aspect_hints:(Array.make (Array.length devs) 1.0)
    in
    check_bool label true (Mps_geometry.Dims.equal (dims p circuit s) raw)
  in
  List.iter
    (unclamped "op-amp dims unclamped" (Opamp.circuit p) Opamp.dims Opamp.devices)
    [ Opamp.sizing_lo; Opamp.nominal_sizing; Opamp.sizing_hi ];
  List.iter
    (unclamped "OTA dims unclamped" (Folded_cascode.circuit p) Folded_cascode.dims
       Folded_cascode.devices)
    [ Folded_cascode.sizing_lo; Folded_cascode.nominal_sizing; Folded_cascode.sizing_hi ]

(* The loop's answers, pinned: the non-time cells A4 and A6 print at
   the Quick budget.  A change to the loop's draw order or to its cost
   arithmetic moves them. *)
let row_cells report label =
  match
    List.find_opt (String.starts_with ~prefix:label) (String.split_on_char '\n' report)
  with
  | None -> Alcotest.failf "no %S row" label
  | Some line ->
    String.sub line (String.length label) (String.length line - String.length label)
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")

let check_row report label cells =
  Alcotest.(check (list string)) label cells
    (List.filteri (fun i _ -> i < List.length cells) (row_cells report label))

let test_loop_answers_pinned () =
  let open Mps_experiments.Experiments in
  let a4 = synthesis_comparison ~budget:Quick () in
  check_row a4 "mps" [ "3.42"; "yes"; "56.5" ];
  check_row a4 "template" [ "2.90"; "yes"; "52.4" ];
  check_row a4 "sa-placer" [ "1.48"; "yes"; "100.0" ];
  let a6 = ablation_parasitics ~budget:Quick () in
  check_row a6 "HPWL estimate" [ "3.42"; "56.5"; "284" ];
  check_row a6 "maze route + RC extraction" [ "3.95"; "68.9"; "336" ]

(* A4's and A6's Quick loops on the MPS, observed: the wrapper asks
   the engine, on a session of its own, whether a stored placement
   answers each query (rather than the backup), then delegates to the
   loop's placer and keeps a copy of the floorplan it returns. *)
let experiments_structure =
  lazy
    (let c = Lazy.force circuit in
     fst (Generator.single_walk ~config:Mps_experiments.Experiments.(generator_config Quick c) c))

let observed_loop ~iterations parasitics =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let structure = Lazy.force experiments_structure in
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  let inner = Synth_loop.mps_placer structure in
  let stored = ref 0 and floorplans = ref [] in
  let place dims =
    if Structure.Engine.query_id engine session dims >= 0 then incr stored;
    let rects = inner.Synth_loop.place dims in
    floorplans :=
      Array.map
        (fun (r : Mps_geometry.Rect.t) ->
          Mps_geometry.Rect.make ~x:r.x ~y:r.y ~w:r.w ~h:r.h)
        rects
      :: !floorplans;
    rects
  in
  let config = { Synth_loop.default_config with iterations; parasitics } in
  let r = Synth_loop.run ~config Opamp.model process c ~die_w ~die_h { inner with place } in
  (r, !stored, List.rev !floorplans)

let a4_loop = lazy (observed_loop ~iterations:60 Synth_loop.Hpwl_estimate)
let a6_routed_loop = lazy (observed_loop ~iterations:30 Synth_loop.Routed_extraction)

(* How many of the loop's placements the structure itself answered.
   The best costs tie each observed loop to its pinned A4/A6 row. *)
let test_loop_stored_answers () =
  let check label loop ~best ~stored ~calls =
    let r, n_stored, floorplans = Lazy.force loop in
    Alcotest.(check string) (label ^ " best cost") best
      (Printf.sprintf "%.2f" r.Synth_loop.best_cost);
    Alcotest.(check int) (label ^ " calls") calls (List.length floorplans);
    Alcotest.(check int) (label ^ " stored answers") stored n_stored
  in
  check "A4 mps" a4_loop ~best:"3.42" ~stored:0 ~calls:61;
  check "A6 routed" a6_routed_loop ~best:"3.95" ~stored:0 ~calls:31

(* On the same floorplan and the same signal nets, the routed wire load
   is at least the HPWL estimate, on every candidate of A6's Quick
   loop.  Single nets may route shorter than their HPWL (pins snap to
   the router's cells), so this is checked per candidate, not per net;
   every candidate where it fails is reported. *)
let test_routed_load_at_least_hpwl () =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let _, _, floorplans = Lazy.force a6_routed_loop in
  let wire_cap mode rects =
    (Opamp.model.Synth_loop.performance mode process c ~die_w ~die_h Opamp.nominal_sizing
       rects)
      .Synth_loop.wire_cap_ff
  in
  let failures =
    List.concat
      (List.mapi
         (fun i rects ->
           let hpwl = wire_cap Synth_loop.Hpwl_estimate rects
           and routed = wire_cap Synth_loop.Routed_extraction rects in
           if hpwl <= routed then []
           else [ Printf.sprintf "candidate %d: HPWL %.1f fF > routed %.1f fF" i hpwl routed ])
         floorplans)
  in
  Alcotest.(check (list string)) "candidates where routed < HPWL" [] failures

let suite =
  [
    ("opamp circuit shape matches Table 1", `Quick, test_circuit_shape);
    ("sizing clamp", `Quick, test_sizing_clamp);
    ("nominal sizing inside bounds", `Quick, test_nominal_inside_bounds);
    ("module dims stay within designer bounds", `Quick, test_dims_within_circuit_bounds);
    ("device vector order", `Quick, test_devices_order);
    ("performance monotonic in cap and tail", `Quick, test_performance_monotonicity);
    ("layout wirelength feeds back into GBW", `Quick, test_wire_cap_feedback);
    ("spec cost penalizes violations", `Quick, test_spec_cost);
    ("loop: runs with the MPS placer", `Quick, test_loop_mps);
    ("loop: runs with the template placer", `Quick, test_loop_template);
    ("loop: deterministic per seed", `Quick, test_loop_deterministic);
    ("loop: best perf consistent with best cost", `Quick, test_loop_best_perf_matches_cost);
    ("loop: aspect hints optimized and bounded", `Quick, test_loop_aspect_hints);
    ("loop: aspect off keeps unit hints", `Quick, test_loop_aspect_off_keeps_unit_hints);
    ("dims: aspect hints steer block shapes", `Quick, test_dims_aspect_hint_changes_shape);
    ("loop: dims valid at extreme sizing", `Quick, test_dims_mismatched_circuit);
    ("loop: runs on a salvaged structure", `Quick, test_loop_runs_on_salvaged_structure);
    ("loop: A4 and A6 answers pinned", `Quick, test_loop_answers_pinned);
    ("loop: stored answers of A4 and A6 counted", `Quick, test_loop_stored_answers);
    ("loop: routed load at least HPWL on A6's candidates", `Quick,
     test_routed_load_at_least_hpwl);
    ("models: block bounds follow the process", `Quick, test_bounds_follow_process);
  ]
