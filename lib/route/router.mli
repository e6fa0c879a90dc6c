(** Grid-based global router (Lee maze routing with sequential Steiner
    growth) — the "Routing" box of the paper's synthesis loop (Fig. 1b).

    Nets are routed one at a time in decreasing pin count; each net
    grows a Steiner tree by repeated Dijkstra searches, in (cost,
    column, row) order, from the already-routed tree to the next pin,
    preferring uncongested cells.  A blocked cell only costs more, so
    every pin is reached. *)

open Mps_geometry
open Mps_netlist

val cell : int
(** Routing grid pitch in layout grid units: 4. *)

(** Routing result for one net. *)
type routed_net = {
  net_id : int;
  cells : (int * int) list;  (** Tree cells (column, row), distinct, last grafted first. *)
  length : float;  (** Routed wirelength in layout grid units. *)
}

type t = {
  nets : routed_net array;
  total_length : float;
  overflow : int;  (** Congestion: cell crossings above capacity. *)
}

val route : Circuit.t -> die_w:int -> die_h:int -> Rect.t array -> t
(** Route every net of the instantiated floorplan on a {!Route_grid} of
    pitch {!cell} and 4 wire crossings per cell before congestion.  A cell costs 1, plus 2 per crossing
    already in it, plus 8 inside a block (over-the-cell routing on upper
    metal: pins deep inside modules can escape, but open channels are
    strongly preferred).
    @raise Invalid_argument on a block-count mismatch. *)

val routed_length : t -> int -> float
(** Length of one net by id. *)

val cell_center : int * int -> float * float
(** Die coordinates of a routing cell's center, for drawing wires. *)
