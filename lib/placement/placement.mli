(** Concrete placements: per-block coordinates on a die.

    A placement fixes the lower-left corner of every block; instantiating
    it with a dimension vector yields the floorplan rectangles.  Because
    blocks are anchored at their lower-left corner, shrinking any block
    keeps a legal floorplan legal — the monotonicity the Placement
    Expansion step (paper §3.1.2) relies on. *)

open Mps_rng
open Mps_geometry
open Mps_netlist

type t = {
  coords : (int * int) array;  (** Lower-left corner of each block. *)
  die_w : int;
  die_h : int;
}

val make : coords:(int * int) array -> die_w:int -> die_h:int -> t
(** @raise Invalid_argument on non-positive die dimensions. *)

val n_blocks : t -> int

val rects : t -> Dims.t -> Rect.t array
(** Floorplan instantiation: block [i] occupies the rectangle at
    [coords.(i)] with dimensions [dims.(i)].
    @raise Invalid_argument on block-count mismatch. *)

val rects_into : Rect.t array -> t -> Dims.t -> unit
(** {!rects} into a caller buffer of exactly [n_blocks] rectangles,
    refilled in place ([Rect.set]) — the allocation-free variant for
    per-worker scratch in sampling and evaluation loops.
    @raise Invalid_argument on a block-count or buffer-length
    mismatch. *)

val is_legal : t -> Dims.t -> bool
(** The instantiated floorplan has no overlaps and stays inside the die. *)

val random : Rng.t -> Circuit.t -> die_w:int -> die_h:int -> t
(** Random placement that is legal at the circuit's minimum dimensions
    (the Placement Selector's initial selection, §3.1.1).  Rejection
    sampling with restarts.
    @raise Failure when no legal placement is found (die too small). *)

val move_block : t -> int -> x:int -> y:int -> t

val equal : t -> t -> bool
