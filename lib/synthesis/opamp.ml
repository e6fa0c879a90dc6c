open Mps_geometry
open Mps_netlist
open Mps_modgen

type sizing = {
  w1_um : float;
  w3_um : float;
  w5_um : float;
  w6_um : float;
  cc_ff : float;
}

let sizing_lo = { w1_um = 4.0; w3_um = 4.0; w5_um = 2.0; w6_um = 8.0; cc_ff = 100.0 }
let sizing_hi = { w1_um = 60.0; w3_um = 50.0; w5_um = 40.0; w6_um = 80.0; cc_ff = 2000.0 }

let zip f a b =
  {
    w1_um = f a.w1_um b.w1_um;
    w3_um = f a.w3_um b.w3_um;
    w5_um = f a.w5_um b.w5_um;
    w6_um = f a.w6_um b.w6_um;
    cc_ff = f a.cc_ff b.cc_ff;
  }

let nominal_sizing = zip (fun lo hi -> sqrt (lo *. hi)) sizing_lo sizing_hi
let clamp_sizing s = zip Float.max sizing_lo (zip Float.min sizing_hi s)

let bump k x s =
  let b v = v *. exp x in
  clamp_sizing
    (match k with
    | 0 -> { s with w1_um = b s.w1_um }
    | 1 -> { s with w3_um = b s.w3_um }
    | 2 -> { s with w5_um = b s.w5_um }
    | 3 -> { s with w6_um = b s.w6_um }
    | _ -> { s with cc_ff = b s.cc_ff })

let gate_length_um = 0.35

let devices s =
  [|
    Device.Mos_pair { w_um = s.w1_um; l_um = gate_length_um };
    Device.Mos_pair { w_um = s.w3_um; l_um = gate_length_um };
    Device.Mos { w_um = s.w5_um; l_um = gate_length_um };
    Device.Mos { w_um = s.w6_um; l_um = gate_length_um };
    Device.Capacitor { c_ff = s.cc_ff };
  |]

let circuit process =
  let blocks =
    Synth_loop.swept_blocks process
      [| "diff_pair"; "mirror_load"; "tail_src"; "driver"; "comp_cap" |]
      (fun knob -> devices (zip knob sizing_lo sizing_hi))
  in
  (* Same connectivity as the Table 1 benchmark entry. *)
  let nets = Benchmarks.two_stage_opamp.Circuit.nets in
  Circuit.with_symmetry
    (Circuit.make ~name:"TwoStage Opamp (synth)" ~blocks ~nets)
    [ Symmetry.Self 0; Symmetry.Self 1 ]

let dims ?(aspect_hints = [| 1.0; 1.0; 1.0; 1.0; 1.0 |]) process circ s =
  let raw =
    Module_gen.dims_of_devices process (devices (clamp_sizing s)) ~aspect_hints
  in
  Dimbox.clamp (Circuit.dim_bounds circ) raw

(* First-order square-law constants (generic 0.35 µm, Vdd 3.3 V). *)
let k_ua_per_v2 = 100.0
let lambda_per_v = 0.1
let vdd = 3.3

(* Core model: everything downstream of the parasitic wire load. *)
let of_wire_cap s ~wire_cap_ff ~area =
  let s = clamp_sizing s in
  (* Currents: tail sets the first stage, driver width the second. *)
  let i5_ua = 4.0 *. s.w5_um in
  let i6_ua = 3.0 *. s.w6_um in
  let gm1_ua_v = sqrt (2.0 *. k_ua_per_v2 *. (s.w1_um /. gate_length_um) *. (i5_ua /. 2.0)) in
  let gm6_ua_v = sqrt (2.0 *. k_ua_per_v2 *. (s.w6_um /. gate_length_um) *. i6_ua) in
  let av1 = gm1_ua_v /. (lambda_per_v *. i5_ua) in
  let av2 = gm6_ua_v /. (lambda_per_v *. i6_ua) in
  let gain_db = 20.0 *. log10 (Float.max 1.0 (av1 *. av2)) in
  let c_total_ff = s.cc_ff +. wire_cap_ff in
  (* gm [µA/V] / C [fF]: µA/V/fF = 1e9 rad/s -> MHz after /2π *. 1e3 *)
  let gbw_mhz = gm1_ua_v /. c_total_ff /. (2.0 *. Float.pi) *. 1000.0 in
  let slew_v_per_us = i5_ua /. c_total_ff *. 1000.0 in
  let power_mw = (i5_ua +. i6_ua) *. vdd /. 1000.0 in
  { Synth_loop.gain_db; gbw_mhz; slew_v_per_us; power_mw; wire_cap_ff; area }

(* Signal-path nets of the two-stage topology: the first-stage output
   driving the compensation cap ("out1", id 2) and the amplifier output
   ("out", id 3). *)
let model =
  {
    Synth_loop.nominal = nominal_sizing;
    bump;
    dims;
    performance =
      Synth_loop.wire_load_performance ~fixed_load_ff:50.0 ~signal_nets:[ 2; 3 ] of_wire_cap;
    spec =
      { Synth_loop.min_gain_db = 60.0; min_gbw_mhz = 5.0; min_slew_v_per_us = 2.0;
        max_power_mw = 2.0 };
  }

let performance_routed = model.Synth_loop.performance Synth_loop.Routed_extraction

let pp_sizing fmt s =
  Format.fprintf fmt "W1 %.1fu W3 %.1fu W5 %.1fu W6 %.1fu Cc %.0f fF" s.w1_um s.w3_um
    s.w5_um s.w6_um s.cc_ff
