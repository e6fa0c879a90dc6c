(** Grid-based global router (Lee maze routing with sequential Steiner
    growth) — the "Routing" box of the paper's synthesis loop (Fig. 1b).

    Nets are routed one at a time in decreasing pin count; each net
    grows a Steiner tree by repeated breadth-first searches from the
    already-routed tree to the next pin, preferring uncongested cells.
    Pins unreachable through free cells fall back to their half-perimeter
    estimate so downstream extraction always has a length for every
    net. *)

open Mps_geometry
open Mps_netlist

val cell : int
(** Routing grid pitch in layout grid units: 4. *)

val capacity : int
(** Wire crossings per cell before congestion: 4. *)

(** Routing result for one net. *)
type routed_net = {
  net_id : int;
  cells : (int * int) list;  (** Tree cells, without duplicates. *)
  length : float;  (** Routed wirelength in layout grid units. *)
  routed : bool;
      (** [false]: no path existed (degenerate grid) and the length fell
          back to the HPWL estimate. *)
}

type t = {
  nets : routed_net array;
  total_length : float;
  overflow : int;  (** Congestion: cell crossings above capacity. *)
  failed_nets : int;
}

val route : Circuit.t -> die_w:int -> die_h:int -> Rect.t array -> t
(** Route every net of the instantiated floorplan on a {!Route_grid} of
    pitch {!cell} and {!capacity}.  A cell costs 1, plus 2 per crossing
    already in it, plus 8 inside a block (over-the-cell routing on upper
    metal: pins deep inside modules can escape, but open channels are
    strongly preferred).
    @raise Invalid_argument on a block-count mismatch. *)

val routed_length : t -> int -> float
(** Length of one net by id. *)
