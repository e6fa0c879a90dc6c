(** Layout-inclusive sizing loop (paper Fig. 1b).

    A simulated-annealing search over device sizes; every candidate
    sizing is translated to block dimensions, placed by a pluggable
    placement instantiator, and scored on layout-aware performance.
    Swapping the instantiator (multi-placement structure, fixed
    template, per-query SA placer) reproduces the paper's comparison:
    the MPS gives template-class speed with optimization-class
    placements. *)

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
  | Hpwl_estimate  (** Fast: wire load from total HPWL. *)
  | Routed_extraction
      (** Full Fig. 1b flow: maze routing + RC extraction per candidate. *)

type config = {
  seed : int;
  iterations : int;  (** Sizing candidates evaluated. *)
  schedule : Mps_anneal.Schedule.t;
  spec : Opamp.spec;
  step : float;  (** Log-space perturbation half-range per knob. *)
  parasitics : parasitics;
  optimize_aspect : bool;
      (** Let the annealer also pick per-block aspect-ratio hints
          (folding choices) alongside the electrical sizes. *)
}

val default_config : config
(** 150 iterations, HPWL parasitics, aspect optimization on. *)

type result = {
  best_sizing : Opamp.sizing;
  best_aspect_hints : float array;
      (** Winning per-block aspect hints (all 1.0 when
          [optimize_aspect] is off). *)
  best_perf : Opamp.perf;
  best_cost : float;
  meets_spec : bool;
  evaluations : int;
  placement_seconds : float;  (** Wall time spent inside the placer. *)
  total_seconds : float;
  history : float array;  (** Best-so-far cost after each evaluation. *)
}

val run :
  ?config:config ->
  Process.t -> Circuit.t -> die_w:int -> die_h:int -> placer -> result
(** Run the loop for the two-stage op-amp model on the given circuit
    (from {!Opamp.circuit}). *)
