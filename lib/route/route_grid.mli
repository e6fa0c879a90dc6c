(** Coarse routing grid over a floorplan.

    The die is divided into square cells of [cell] grid units.  Cells
    covered by a block's interior are obstacles — wires must go around
    the modules, as in channel-style analog routing — except that every
    net pin unblocks its own cell so it can be reached.  Each free cell
    has a crossing capacity used for congestion accounting. *)

open Mps_geometry

type t

val create : die_w:int -> die_h:int -> cell:int -> capacity:int -> Rect.t array -> t
(** Grid over [[0,die_w) × [0,die_h)]; cells whose center lies strictly
    inside some rectangle are blocked.
    @raise Invalid_argument when [cell <= 0], [capacity <= 0] or the die
    is not positive. *)

val cols : t -> int
val rows : t -> int

val cell_of_point : t -> x:float -> y:float -> int * int
(** Grid cell containing a die point (clamped to the grid). *)

val center_of_cell : t -> int * int -> float * float
(** Die coordinates of a cell's center. *)

val blocked : t -> int * int -> bool

val unblock : t -> int * int -> unit
(** Carve a pin access cell out of an obstacle. *)

val usage : t -> int * int -> int
(** Wires currently crossing the cell. *)

val occupy : t -> int * int -> unit
(** Record one wire crossing (allowed past capacity; see {!overflow}). *)

val overflow : t -> int
(** Total usage above capacity, summed over cells — the congestion
    measure. *)

val neighbors_all : t -> int * int -> (int * int) list
(** All 4-connected in-grid neighbours, blocked cells included (for
    over-the-block routing at a cost penalty). *)
