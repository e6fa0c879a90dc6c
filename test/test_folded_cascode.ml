(* Tests for the folded-cascode OTA design. *)

open Mps_netlist
open Mps_core
open Mps_synthesis

let check_bool = Alcotest.(check bool)

let process = Mps_modgen.Process.default
let circuit = lazy (Folded_cascode.circuit process)

let test_circuit_shape () =
  let c = Lazy.force circuit in
  Alcotest.(check int) "seven blocks" 7 (Circuit.n_blocks c);
  Alcotest.(check int) "ten nets" 10 (Circuit.n_nets c);
  check_bool "symmetric" true (c.Circuit.symmetry <> [])

let test_dims_valid () =
  let c = Lazy.force circuit in
  List.iter
    (fun s ->
      check_bool "dims valid" true
        (Circuit.dims_valid c (Folded_cascode.dims process c s)))
    [ Folded_cascode.sizing_lo; Folded_cascode.sizing_hi; Folded_cascode.nominal_sizing ]

let test_clamp () =
  let wild =
    { Folded_cascode.w_in_um = 1e6; w_casc_um = 0.0; w_mirror_um = 10.0;
      w_tail_um = 5.0; cl_ff = -3.0 }
  in
  let c = Folded_cascode.clamp_sizing wild in
  check_bool "in clamped" true (c.Folded_cascode.w_in_um = Folded_cascode.sizing_hi.Folded_cascode.w_in_um);
  check_bool "casc clamped" true
    (c.Folded_cascode.w_casc_um = Folded_cascode.sizing_lo.Folded_cascode.w_casc_um);
  check_bool "cl clamped" true (c.Folded_cascode.cl_ff = Folded_cascode.sizing_lo.Folded_cascode.cl_ff)

let perf_at sizing =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let dims = Folded_cascode.dims process c sizing in
  let rng = Mps_rng.Rng.create ~seed:3 in
  let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
  let rects =
    Mps_placement.Repack.instantiate ~die:(die_w, die_h)
      ~coords:p.Mps_placement.Placement.coords dims
  in
  Folded_cascode.performance process c ~die_w ~die_h sizing rects

let test_performance_monotonicity () =
  let base = Folded_cascode.nominal_sizing in
  let p0 = perf_at base in
  let p_cl = perf_at { base with Folded_cascode.cl_ff = base.Folded_cascode.cl_ff *. 3.0 } in
  check_bool "load cap reduces GBW" true
    (p_cl.Folded_cascode.gbw_mhz < p0.Folded_cascode.gbw_mhz);
  let p_tail = perf_at { base with Folded_cascode.w_tail_um = base.Folded_cascode.w_tail_um *. 2.0 } in
  check_bool "tail increases power" true
    (p_tail.Folded_cascode.power_mw > p0.Folded_cascode.power_mw);
  check_bool "tail increases slew" true
    (p_tail.Folded_cascode.slew_v_per_us > p0.Folded_cascode.slew_v_per_us)

let test_spec_cost () =
  let good =
    { Folded_cascode.gain_db = 90.0; gbw_mhz = 30.0; slew_v_per_us = 20.0;
      power_mw = 1.0; wire_cap_ff = 100.0; area = 10_000 }
  in
  let bad = { good with Folded_cascode.gbw_mhz = 5.0 } in
  check_bool "good meets" true (Folded_cascode.meets_spec Folded_cascode.default_spec good);
  check_bool "bad fails" false (Folded_cascode.meets_spec Folded_cascode.default_spec bad);
  check_bool "violation dominates" true
    (Folded_cascode.spec_cost Folded_cascode.default_spec bad
     > Folded_cascode.spec_cost Folded_cascode.default_spec good)

let quick_structure =
  lazy
    (let c = Lazy.force circuit in
     fst (Generator.single_walk ~config:Generator.fast_config c))

let test_synthesize_with_mps () =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let placer = Synth_loop.mps_placer (Lazy.force quick_structure) in
  let r = Folded_cascode.synthesize ~iterations:25 process c ~die_w ~die_h placer in
  check_bool "finite cost" true (Float.is_finite r.Folded_cascode.best_cost);
  check_bool "evaluations" true (r.Folded_cascode.evaluations = 26);
  check_bool "placement within total" true
    (r.Folded_cascode.placement_seconds <= r.Folded_cascode.total_seconds)

let test_synthesize_deterministic () =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let placer = Synth_loop.mps_placer (Lazy.force quick_structure) in
  let run () =
    (Folded_cascode.synthesize ~iterations:15 process c ~die_w ~die_h placer)
      .Folded_cascode.best_cost
  in
  Alcotest.(check (float 1e-12)) "same best" (run ()) (run ())

let test_generation_works_on_ota () =
  let structure = Lazy.force quick_structure in
  check_bool "some placements" true (Structure.n_placements structure >= 1);
  let probes = Mps_experiments.Experiments.probe_dims ~seed:3 ~n:100 structure in
  Array.iter
    (fun dims ->
      check_bool "answers overlap-free" true
        (Mps_geometry.Rect.any_overlap (Structure.instantiate structure dims) = None))
    probes

let suite =
  [
    ("circuit shape and symmetry", `Quick, test_circuit_shape);
    ("module dims within bounds", `Quick, test_dims_valid);
    ("sizing clamp", `Quick, test_clamp);
    ("performance monotonic", `Quick, test_performance_monotonicity);
    ("spec cost", `Quick, test_spec_cost);
    ("synthesis loop with the MPS", `Quick, test_synthesize_with_mps);
    ("synthesis deterministic", `Quick, test_synthesize_deterministic);
    ("MPS generation on the OTA", `Quick, test_generation_works_on_ota);
  ]
