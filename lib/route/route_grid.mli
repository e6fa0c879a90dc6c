(** Coarse routing grid over a floorplan, in flat arrays.

    The die is divided into square cells of [cell] grid units, each
    named by one int, column-major: cell [(c, r)] is [c * rows + r].
    Cells covered by a block's interior are obstacles — wires must go
    around the modules, as in channel-style analog routing — except that
    every net pin unblocks its own cell so it can be reached.  Each cell
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

val cell_of_point : t -> x:float -> y:float -> int
(** Grid cell containing a die point (clamped to the grid). *)

val blocked : t -> int -> bool

val unblock : t -> int -> unit
(** Carve a pin access cell out of an obstacle. *)

val usage : t -> int -> int
(** Wires currently crossing the cell. *)

val occupy : t -> int -> unit
(** Record one wire crossing (allowed past capacity; see {!overflow}). *)

val overflow : t -> int
(** Total usage above capacity, summed over cells — the congestion
    measure. *)
