(** Placement Expansion (paper §3.1.2).

    Starting from every block at its minimum dimensions, widths and
    heights are incremented one unit at a time, round-robin, until no
    further growth is possible without overlapping a neighbour, leaving
    the die, or exceeding the block's designer maximum.  The result is
    the dimension hyper-box over which the placement stays legal. *)

open Mps_geometry
open Mps_netlist

val expand : Circuit.t -> Placement.t -> Dimbox.t
(** The expanded box: per block, widths [w_min .. w_expanded] and
    heights [h_min .. h_expanded].

    Requires the placement to be legal at the circuit's minimum
    dimensions.  @raise Invalid_argument otherwise.

    Because blocks are anchored at their lower-left corners, the
    floorplan is legal for *every* dimension vector in the returned box
    (monotonicity), not only at the expanded corner. *)
