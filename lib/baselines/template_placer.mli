(** Template-based placement baseline (BALLISTIC / MOGLAN / MSL class,
    paper §1).

    One fixed arrangement of blocks, tuned once at nominal dimensions.
    Instantiation for new dimensions keeps the template's relative
    order and re-packs greedily, exactly the speed-for-flexibility trade
    the paper criticizes: fast, but every sizing gets the same
    arrangement, optimal or not. *)

open Mps_rng
open Mps_geometry
open Mps_netlist

type t

val build :
  ?iterations:int -> rng:Rng.t -> Circuit.t -> die_w:int -> die_h:int -> t
(** Optimize the fixed arrangement once, at the center of the dimension
    space (the "expert knowledge" step of a template generator),
    with a simulated-annealing pass of [iterations] steps (default
    2000). *)

val instantiate : t -> Dims.t -> Rect.t array
(** Re-pack the template for the given dimensions: blocks keep the
    template's left-to-right, bottom-to-top order; any block overlapping
    an earlier one slides up until free.  Always overlap-free; may
    exceed the die for extreme dimensions (the template's rigidity is
    the point). *)

val die : t -> int * int
