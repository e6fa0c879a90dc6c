open Mps_geometry
open Mps_netlist
open Mps_modgen

type sizing = {
  w_in_um : float;
  w_casc_um : float;
  w_mirror_um : float;
  w_tail_um : float;
  cl_ff : float;
}

let sizing_lo =
  { w_in_um = 6.0; w_casc_um = 4.0; w_mirror_um = 4.0; w_tail_um = 3.0; cl_ff = 200.0 }

let sizing_hi =
  { w_in_um = 80.0; w_casc_um = 60.0; w_mirror_um = 50.0; w_tail_um = 50.0; cl_ff = 4000.0 }

let zip f a b =
  {
    w_in_um = f a.w_in_um b.w_in_um;
    w_casc_um = f a.w_casc_um b.w_casc_um;
    w_mirror_um = f a.w_mirror_um b.w_mirror_um;
    w_tail_um = f a.w_tail_um b.w_tail_um;
    cl_ff = f a.cl_ff b.cl_ff;
  }

let nominal_sizing = zip (fun lo hi -> sqrt (lo *. hi)) sizing_lo sizing_hi
let clamp_sizing s = zip Float.max sizing_lo (zip Float.min sizing_hi s)

let bump k x s =
  let b v = v *. exp x in
  clamp_sizing
    (match k with
    | 0 -> { s with w_in_um = b s.w_in_um }
    | 1 -> { s with w_casc_um = b s.w_casc_um }
    | 2 -> { s with w_mirror_um = b s.w_mirror_um }
    | 3 -> { s with w_tail_um = b s.w_tail_um }
    | _ -> { s with cl_ff = b s.cl_ff })

let gate_length_um = 0.35

let devices s =
  [|
    Device.Mos_pair { w_um = s.w_in_um; l_um = gate_length_um };
    Device.Mos_pair { w_um = s.w_casc_um; l_um = gate_length_um };
    Device.Mos_pair { w_um = s.w_casc_um; l_um = gate_length_um };
    Device.Mos_pair { w_um = s.w_mirror_um; l_um = 0.5 };
    Device.Mos { w_um = s.w_tail_um; l_um = 0.7 };
    Device.Resistor { r_ohm = 15_000.0 };
    Device.Capacitor { c_ff = s.cl_ff };
  |]

let circuit process =
  let blocks =
    Synth_loop.swept_blocks process
      [| "in_pair"; "casc_n"; "casc_p"; "mirror"; "tail"; "bias_res"; "load_cap" |]
      (fun knob -> devices (zip knob sizing_lo sizing_hi))
  in
  let pin = Net.block_pin in
  let nets =
    [|
      Net.make ~id:0 ~name:"inp" ~pins:[ pin ~fx:0.1 0; Net.pad ~px:0.0 ~py:0.35 ];
      Net.make ~id:1 ~name:"inn" ~pins:[ pin ~fx:0.9 0; Net.pad ~px:0.0 ~py:0.65 ];
      Net.make ~id:2 ~name:"fold_l" ~pins:[ pin ~fx:0.2 ~fy:0.9 0; pin ~fx:0.2 ~fy:0.1 1 ];
      Net.make ~id:3 ~name:"fold_r" ~pins:[ pin ~fx:0.8 ~fy:0.9 0; pin ~fx:0.8 ~fy:0.1 1 ];
      Net.make ~id:4 ~name:"casc_mid_l" ~pins:[ pin ~fx:0.2 ~fy:0.9 1; pin ~fx:0.2 ~fy:0.1 2 ];
      Net.make ~id:5 ~name:"casc_mid_r" ~pins:[ pin ~fx:0.8 ~fy:0.9 1; pin ~fx:0.8 ~fy:0.1 2 ];
      Net.make ~id:6 ~name:"out"
        ~pins:[ pin ~fx:0.9 2; pin ~fx:0.9 3; pin ~fx:0.1 6; Net.pad ~px:1.0 ~py:0.5 ];
      Net.make ~id:7 ~name:"mirror_gate" ~pins:[ pin ~fx:0.1 2; pin ~fx:0.1 3 ];
      Net.make ~id:8 ~name:"tail_net" ~pins:[ pin ~fx:0.25 ~fy:0.1 0; pin ~fx:0.75 ~fy:0.1 0; pin ~fy:0.9 4 ];
      Net.make ~id:9 ~name:"bias" ~pins:[ pin ~fx:0.5 5; pin ~fx:0.1 4; pin ~fy:0.05 1 ];
    |]
  in
  Circuit.with_symmetry
    (Circuit.make ~name:"Folded Cascode OTA" ~blocks ~nets)
    [ Symmetry.Self 0; Symmetry.Self 1; Symmetry.Self 2; Symmetry.Self 3 ]

let dims ?(aspect_hints = Array.make 7 1.0) process circ s =
  let raw = Module_gen.dims_of_devices process (devices (clamp_sizing s)) ~aspect_hints in
  Dimbox.clamp (Circuit.dim_bounds circ) raw

let k_ua_per_v2 = 100.0
let lambda_per_v = 0.08
let vdd = 3.3

let of_wire_cap s ~wire_cap_ff ~area =
  let s = clamp_sizing s in
  let i_tail_ua = 5.0 *. s.w_tail_um in
  let gm_in = sqrt (2.0 *. k_ua_per_v2 *. (s.w_in_um /. gate_length_um) *. (i_tail_ua /. 2.0)) in
  let gm_casc = sqrt (2.0 *. k_ua_per_v2 *. (s.w_casc_um /. gate_length_um) *. (i_tail_ua /. 2.0)) in
  (* cascode output resistance boosts single-stage gain: A ≈ gm_in *
     (gm_casc * ro²) with ro ∝ 1/(λI) *)
  let ro = 1.0 /. (lambda_per_v *. (i_tail_ua /. 2.0)) in
  let gain = gm_in *. gm_casc *. ro *. ro /. 2.0 in
  let gain_db = 20.0 *. log10 (Float.max 1.0 gain) in
  let c_total_ff = s.cl_ff +. wire_cap_ff in
  let gbw_mhz = gm_in /. c_total_ff /. (2.0 *. Float.pi) *. 1000.0 in
  let slew_v_per_us = i_tail_ua /. c_total_ff *. 1000.0 in
  let power_mw = 2.0 *. i_tail_ua *. vdd /. 1000.0 in
  { Synth_loop.gain_db; gbw_mhz; slew_v_per_us; power_mw; wire_cap_ff; area }

(* The high-impedance output ("out", id 6) is the signal-path net. *)
let model =
  {
    Synth_loop.nominal = nominal_sizing;
    bump;
    dims;
    performance =
      Synth_loop.wire_load_performance ~fixed_load_ff:30.0 ~signal_nets:[ 6 ] of_wire_cap;
    spec =
      { Synth_loop.min_gain_db = 70.0; min_gbw_mhz = 20.0; min_slew_v_per_us = 10.0;
        max_power_mw = 1.5 };
  }

let pp_sizing fmt s =
  Format.fprintf fmt "Win %.1fu Wcasc %.1fu Wmir %.1fu Wtail %.1fu CL %.0f fF" s.w_in_um
    s.w_casc_um s.w_mirror_um s.w_tail_um s.cl_ff
