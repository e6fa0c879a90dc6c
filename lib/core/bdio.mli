(** Block Dimensions-Intervals Optimizer (paper §3.2).

    Given a placement with fixed coordinates and its expanded dimension
    box, the BDIO runs a simulated annealing search over concrete
    dimension vectors inside the box (Dimensions Selector + Cost
    Calculator, §3.2.1–§3.2.2), then shrinks the box around the
    best-cost vector (Optimize Ranges, §3.2.3) and reports the average
    and best cost back to the Placement Explorer. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_placement

(** How Optimize Ranges shrinks the intervals (paper eq. 6; see
    DESIGN.md for the interpretation of the garbled formula). *)
type shrink_rule =
  | Cost_ratio
      (** Interval half-width scaled by [best_cost /. avg_cost]: the
          further the average sits from the best, the tighter the box
          hugs the best vector.  The paper's rule. *)
  | Fixed of float
      (** Constant shrink factor in [(0, 1]]; ablation baseline. *)
  | No_shrink  (** Keep the full expansion box; ablation baseline. *)

type config = {
  iterations : int;  (** SA steps (the paper's user-set iteration count). *)
  shrink : shrink_rule;
}

val default_config : config
(** 400 iterations, [Cost_ratio] shrinking. *)

type result = {
  box : Dimbox.t;  (** The reduced dimension intervals. *)
  avg_cost : float;
  best_cost : float;
  best_dims : Dims.t;
  evaluations : int;  (** Cost evaluations performed (initial + moves). *)
}

val cost_of_dims : Circuit.t -> Placement.t -> Dims.t -> float
(** The Cost Calculator: {!Mps_cost.Cost.total} of the instantiated
    floorplan. *)

val shrink_box :
  rule:shrink_rule ->
  box:Dimbox.t ->
  best_dims:Dims.t ->
  avg_cost:float ->
  best_cost:float ->
  Dimbox.t
(** Optimize Ranges: per axis, a sub-interval of [box] centred on the
    best value.  The result always contains [best_dims] and is contained
    in [box]. *)

val optimize :
  ?config:config ->
  ?arena:Arena.t ->
  rng:Rng.t -> Circuit.t -> Placement.t -> box:Dimbox.t -> result
(** Run the full BDIO on one expanded placement.  The returned box is
    contained in the input box and contains [best_dims]; [avg_cost >=
    best_cost].  Every move re-draws 30% of the [2N] dimension entries
    (at least one), under geometric cooling (t0 200, alpha 0.97, t_min
    1e-3).

    Axis intervals are compiled once per run into a
    {!Mps_anneal.Move_lut}, making each move's axis selection and
    value redraws allocation-free.  [arena] supplies the
    incremental-cost engine and scratch from per-worker reusable
    state; results are bit-identical with or without it.

    [box] must lie inside the placement's expansion in the sense that
    matters: the rects at its upper corner are pairwise disjoint and
    inside the die (true of {!Mps_placement.Expand.expand} and of any
    box inside it).  Then every probe is overlap-free and in-die, so
    the engine skips the pair loop (overlap-free
    {!Mps_cost.Incremental.reset}); this is checked once per run.
    @raise Invalid_argument when [box] breaks that precondition, or
    on [iterations < 1]. *)
