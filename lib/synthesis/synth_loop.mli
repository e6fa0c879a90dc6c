(** Layout-inclusive sizing loop (paper Fig. 1b).

    A simulated-annealing search over device sizes; every candidate
    sizing is translated to block dimensions, placed by a pluggable
    placement instantiator, and scored on layout-aware performance.
    The circuit is a value of type {!model}: the two-stage op-amp
    ({!Opamp.model}) and the folded-cascode OTA
    ({!Folded_cascode.model}) run through this one loop.  Swapping the
    instantiator (multi-placement structure, fixed template, per-query
    SA placer) reproduces the paper's comparison: the MPS gives
    template-class speed with optimization-class placements. *)

open Mps_geometry
open Mps_netlist
open Mps_modgen

(** A placement instantiator inside the loop. *)
type placer = {
  name : string;
  place : Dims.t -> Rect.t array;
}

val mps_placer : Mps_core.Structure.t -> placer
(** Queries the multi-placement structure. *)

val template_placer : Mps_baselines.Template_placer.t -> placer
(** Re-packs the fixed template. *)

val sa_placer :
  ?iterations:int -> seed:int -> Circuit.t -> die_w:int -> die_h:int -> placer
(** Runs a fresh full SA placement per query (the slow baseline) of
    [iterations] steps ({!Mps_baselines.Sa_placer.place}'s default when
    absent). *)

(** How layout parasitics are estimated inside the loop. *)
type parasitics =
  | Hpwl_estimate  (** Fast: wire lengths from each net's HPWL. *)
  | Routed_extraction
      (** Full Fig. 1b flow: wire lengths from maze routing per
          candidate. *)

(** Performance estimate of a sized circuit on a floorplan. *)
type perf = {
  gain_db : float;
  gbw_mhz : float;
  slew_v_per_us : float;
  power_mw : float;
  wire_cap_ff : float;  (** Fixed load plus the signal nets' wire capacitance. *)
  area : int;  (** Bounding-box area of the floorplan, grid units. *)
}

(** Target specification. *)
type spec = {
  min_gain_db : float;
  min_gbw_mhz : float;
  min_slew_v_per_us : float;
  max_power_mw : float;
}

val meets_spec : spec -> perf -> bool

val spec_cost : spec -> perf -> float
(** Smaller is better: heavy relative penalties for violated specs plus
    mild power and area minimization once met. *)

val pp_perf : Format.formatter -> perf -> unit

(** A sizing model over sizings of type ['s]: the circuit-simulation
    substitute the loop scores candidates with. *)
type 's model = {
  nominal : 's;  (** Where every run starts. *)
  bump : int -> float -> 's -> 's;
      (** [bump k x s] scales knob [k] (of five) of [s] by [exp x] and
          clamps the result into the sizing range. *)
  dims : ?aspect_hints:float array -> Process.t -> Circuit.t -> 's -> Dims.t;
      (** Block dimensions of a sizing near the given aspect ratios
          (default all 1.0), clamped into the circuit's bounds. *)
  performance :
    parasitics -> Process.t -> Circuit.t -> die_w:int -> die_h:int -> 's -> Rect.t array -> perf;
  spec : spec;
}

val swept_blocks :
  Process.t -> string array -> ((float -> float -> float) -> Device.t array) -> Block.t array
(** [swept_blocks process names devices_at]: one block per name, its
    dimension bounds the hull of {!Mps_modgen.Module_gen.bounds} for
    [process] over 16 geometric steps through the sizing range.
    [devices_at knob] is the device of every block with each knob at
    [knob lo hi], [lo] and [hi] its range. *)

val wire_load_performance :
  fixed_load_ff:float ->
  signal_nets:int list ->
  ('s -> wire_cap_ff:float -> area:int -> perf) ->
  parasitics -> Process.t -> Circuit.t -> die_w:int -> die_h:int -> 's -> Rect.t array -> perf
(** The performance function of a model that sees the layout only
    through its wire load: [fixed_load_ff] plus, for each net of
    [signal_nets] (indices into the circuit's nets) in order, the
    capacitance {!Mps_route.Extraction.net_rc} gives that net on the
    given process.  Only the length differs by mode: the net's HPWL
    ([Hpwl_estimate]) or its routed length from one
    {!Mps_route.Router.route} of the whole floorplan
    ([Routed_extraction]).  The third argument turns that load and the
    floorplan's area into the performance. *)

type config = {
  seed : int;
  iterations : int;  (** Sizing candidates evaluated. *)
  parasitics : parasitics;
  optimize_aspect : bool;
      (** Let the annealer also pick per-block aspect-ratio hints
          (folding choices) alongside the electrical sizes. *)
}

val default_config : config
(** Seed 42, 150 iterations, HPWL parasitics, aspect optimization on. *)

type 's result = {
  best_sizing : 's;
  best_aspect_hints : float array;
      (** Winning per-block aspect hints (all 1.0 when
          [optimize_aspect] is off). *)
  best_perf : perf;
  best_cost : float;
  meets_spec : bool;
  evaluations : int;
  placement_seconds : float;  (** Wall time spent inside the placer. *)
  total_seconds : float;
  history : float array;  (** Best-so-far cost after each evaluation. *)
}

val run :
  ?config:config ->
  's model -> Process.t -> Circuit.t -> die_w:int -> die_h:int -> placer -> 's result
(** Anneal the model's sizing on the given circuit (the model's own,
    e.g. {!Opamp.circuit}): geometric schedule from t0 50 by 0.96 down
    to 1e-3, each move bumping one knob by up to e{^±0.35} or, with
    [optimize_aspect], three moves in ten one block's aspect hint by
    up to e{^±0.5} within [0.25, 4]. *)
