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
  Folded_cascode.model.Synth_loop.performance Synth_loop.Hpwl_estimate process c ~die_w ~die_h
    sizing rects

let test_performance_monotonicity () =
  let base = Folded_cascode.nominal_sizing in
  let p0 = perf_at base in
  let p_cl = perf_at { base with Folded_cascode.cl_ff = base.Folded_cascode.cl_ff *. 3.0 } in
  check_bool "load cap reduces GBW" true
    (p_cl.Synth_loop.gbw_mhz < p0.Synth_loop.gbw_mhz);
  let p_tail = perf_at { base with Folded_cascode.w_tail_um = base.Folded_cascode.w_tail_um *. 2.0 } in
  check_bool "tail increases power" true
    (p_tail.Synth_loop.power_mw > p0.Synth_loop.power_mw);
  check_bool "tail increases slew" true
    (p_tail.Synth_loop.slew_v_per_us > p0.Synth_loop.slew_v_per_us)

let test_spec_cost () =
  let good =
    { Synth_loop.gain_db = 90.0; gbw_mhz = 30.0; slew_v_per_us = 20.0;
      power_mw = 1.0; wire_cap_ff = 100.0; area = 10_000 }
  in
  let bad = { good with Synth_loop.gbw_mhz = 5.0 } in
  let spec = Folded_cascode.model.Synth_loop.spec in
  check_bool "good meets" true (Synth_loop.meets_spec spec good);
  check_bool "bad fails" false (Synth_loop.meets_spec spec bad);
  check_bool "violation dominates" true
    (Synth_loop.spec_cost spec bad > Synth_loop.spec_cost spec good)

let quick_structure =
  lazy
    (let c = Lazy.force circuit in
     fst (Generator.single_walk ~config:Generator.fast_config c))

let mps_placer () = Synth_loop.mps_placer (Lazy.force quick_structure)

(* The OTA's loop settings: seed 7, no aspect-hint moves. *)
let run_loop ~iterations placer =
  let c = Lazy.force circuit in
  let die_w, die_h = Circuit.default_die c in
  let config =
    { Synth_loop.seed = 7; iterations; parasitics = Hpwl_estimate; optimize_aspect = false }
  in
  Synth_loop.run ~config Folded_cascode.model process c ~die_w ~die_h placer

let test_synthesize_with_mps () =
  let r = run_loop ~iterations:25 (mps_placer ()) in
  check_bool "finite cost" true (Float.is_finite r.Synth_loop.best_cost);
  check_bool "evaluations" true (r.Synth_loop.evaluations = 26);
  check_bool "placement within total" true
    (r.Synth_loop.placement_seconds <= r.Synth_loop.total_seconds)

let test_synthesize_deterministic () =
  let placer = mps_placer () in
  let run () = (run_loop ~iterations:15 placer).Synth_loop.best_cost in
  Alcotest.(check (float 1e-12)) "same best" (run ()) (run ())

(* The loop's answer at seed 7 and 25 iterations, as exact floats: a
   change to its draw order or cost arithmetic moves them. *)
let test_synthesize_pinned () =
  let r = run_loop ~iterations:25 (mps_placer ()) in
  Alcotest.(check (float 0.0)) "best cost" 0x1.e0598e47ee389p+1 r.Synth_loop.best_cost;
  check_bool "best sizing" true
    (r.Synth_loop.best_sizing
     = { Folded_cascode.w_in_um = 0x1.97bdcbde51228p+4; w_casc_um = 0x1.6f646a0a73081p+3;
         w_mirror_um = 0x1.4e44fe5020927p+4; w_tail_um = 0x1.450b9c98b4941p+3;
         cl_ff = 0x1.bda4068acfed3p+9 })

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
    ("synthesis answer pinned", `Quick, test_synthesize_pinned);
    ("MPS generation on the OTA", `Quick, test_generation_works_on_ota);
  ]
