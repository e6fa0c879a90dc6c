(** The placement cost function (paper §3.2.2).

    The paper's cost calculator scores "a fixed placement along with
    fixed widths and heights" by wirelength and area.  The overlap and
    out-of-bounds terms are zero for legal placements; they exist so the
    same function can drive the optimization-based baseline placers,
    which move through illegal intermediate states.  Every caller
    scores under the one weight set {!weights}: changing the weighted
    sum means editing that constant. *)

open Mps_geometry
open Mps_netlist

type weights = {
  wirelength : float;
  area : float;
  overlap : float;  (** Penalty per unit of pairwise overlap area. *)
  out_of_bounds : float;  (** Penalty per unit of area outside the die. *)
  symmetry : float;  (** Penalty per grid unit of symmetry misalignment. *)
}

val weights : weights
(** The weights every evaluation uses: wirelength 1.0, area 0.05
    (wirelength-dominated, as in LAYLA-style analog placement), heavy
    overlap / out-of-bounds penalties (10.0 each), symmetry 0.5. *)

val symmetry_penalty : Circuit.t -> Rect.t array -> float
(** Total misalignment of the circuit's symmetry groups about their
    common vertical axis (the axis minimizing the penalty is fitted as
    the mean of the groups' individual axes): per pair, the horizontal
    mirror error plus the vertical offset; per self-symmetric block,
    its distance to the axis.  [0.] when the circuit has no symmetry
    constraints. *)

(** Itemized evaluation result. *)
type breakdown = {
  hpwl : float;
  bbox_area : int;  (** Area of the bounding box of all blocks. *)
  overlap_area : int;  (** Total pairwise overlap area. *)
  oob_area : int;  (** Total block area outside the die. *)
  symmetry_misalign : float;  (** {!symmetry_penalty} of the floorplan. *)
  total : float;  (** Weighted sum under {!weights}. *)
}

val evaluate : Circuit.t -> die_w:int -> die_h:int -> Rect.t array -> breakdown
(** Full itemized cost of an instantiated floorplan.
    @raise Invalid_argument when [rects] does not have one rectangle per
    block. *)

val total : Circuit.t -> die_w:int -> die_h:int -> Rect.t array -> float
(** [(evaluate ...).total]. *)

val is_legal : die_w:int -> die_h:int -> Rect.t array -> bool
(** No pairwise overlap and every block inside the die. *)
