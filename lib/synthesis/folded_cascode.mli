(** A second synthesizable design: a single-stage folded-cascode OTA.

    Demonstrates that the multi-placement flow generalizes beyond the
    two-stage op-amp: its own netlist (7 modules with symmetry), sizing
    space and first-order performance model, sized by the same loop
    ({!Synth_loop.run} with {!model}).  Single-stage behaviour contrasts
    with {!Opamp}: no compensation capacitor — the load capacitor plus
    wire parasitics set both bandwidth and slew rate, so layout quality
    bites directly. *)

open Mps_geometry
open Mps_netlist
open Mps_modgen

type sizing = {
  w_in_um : float;  (** Input pair width. *)
  w_casc_um : float;  (** Cascode device width (both polarities). *)
  w_mirror_um : float;  (** Output mirror width. *)
  w_tail_um : float;  (** Tail source width. *)
  cl_ff : float;  (** Explicit load capacitor. *)
}

val sizing_lo : sizing
val sizing_hi : sizing
val nominal_sizing : sizing
val clamp_sizing : sizing -> sizing

val devices : sizing -> Device.t array
(** Seven devices in block order: input pair, NMOS cascode pair, PMOS
    cascode pair, mirror, tail, bias resistor, load cap. *)

val circuit : Process.t -> Circuit.t
(** 7 blocks, 10 nets, symmetric input pair and cascode pairs; block
    bounds from the module generators for [process] over the sizing
    range. *)

val dims : ?aspect_hints:float array -> Process.t -> Circuit.t -> sizing -> Dims.t
(** As {!Opamp.dims}. *)

val model : sizing Synth_loop.model
(** The OTA as {!Synth_loop.run} sizes it: the output net's wire load
    on a 30 fF fixed load; spec 70 dB, 20 MHz, 10 V/µs, 1.5 mW. *)

val pp_sizing : Format.formatter -> sizing -> unit
