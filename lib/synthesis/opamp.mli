(** Behavioural two-stage op-amp model: the circuit-simulation substitute
    of the synthesis loop (paper Fig. 1b; DESIGN.md §3).

    Device sizes map to module dimensions through {!Mps_modgen}, and
    layout quality feeds back into performance through wirelength-derived
    parasitic capacitance — so the sizing optimizer genuinely prefers
    sizings whose placements are good, as in layout-inclusive synthesis.
    First-order square-law formulas; absolute numbers are indicative,
    monotonic trends are what matters. *)

open Mps_geometry
open Mps_netlist
open Mps_modgen

(** Device sizes the synthesis loop optimizes. *)
type sizing = {
  w1_um : float;  (** Input differential pair width. *)
  w3_um : float;  (** Mirror load width. *)
  w5_um : float;  (** Tail current source width. *)
  w6_um : float;  (** Second-stage driver width. *)
  cc_ff : float;  (** Compensation capacitor. *)
}

val sizing_lo : sizing
val sizing_hi : sizing
(** Componentwise search-space bounds. *)

val nominal_sizing : sizing
(** Geometric mean of the bounds. *)

val clamp_sizing : sizing -> sizing

val devices : sizing -> Device.t array
(** The five devices in block order: diff pair, mirror load, tail,
    driver, compensation cap. *)

val circuit : Process.t -> Circuit.t
(** The two-stage op-amp netlist (Table 1 structure) with block
    dimension bounds derived from the module generators for [process]
    over the whole sizing range — the circuit the multi-placement
    structure is generated for. *)

val dims : ?aspect_hints:float array -> Process.t -> Circuit.t -> sizing -> Dims.t
(** Realize every device near the given aspect ratios (default all 1.0:
    near-square) and clamp into the circuit's designer bounds — the
    "translate the proposed device sizes into widths and heights" step.
    Aspect hints select among the module generators' folding options, so
    a sizing optimizer can trade block shapes as well as device sizes.
    @raise Invalid_argument when [aspect_hints] has the wrong length. *)

val model : sizing Synth_loop.model
(** The op-amp as {!Synth_loop.run} sizes it: the wire load of the
    signal-path nets [out1] and [out] on a 50 fF fixed load
    ({!Synth_loop.wire_load_performance}); spec 60 dB, 5 MHz, 2 V/µs,
    2 mW. *)

val performance_routed :
  Process.t -> Circuit.t -> die_w:int -> die_h:int -> sizing -> Rect.t array -> Synth_loop.perf
(** [model.performance Routed_extraction]: evaluate the sized op-amp on
    a concrete floorplan that is globally routed ({!Mps_route.Router}),
    its signal nets' capacitance extracted from their routed lengths —
    the full Routing + Circuit Extraction flow of the paper's Fig. 1b.
    Slower than the HPWL mode, and more pessimistic on the same nets:
    on every candidate of A6's loop the routed load is at least the HPWL
    one, though a single net can route a little shorter than its HPWL
    (pins snap to the router's 4-unit cells). *)

val pp_sizing : Format.formatter -> sizing -> unit
