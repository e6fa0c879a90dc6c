(** Nets: the wires whose estimated length drives the cost function.

    A net connects block pins and, optionally, external pads (die-edge
    terminals).  Block pins are positioned as a fraction of the block's
    current width and height, so pin positions scale with the instantiated
    dimensions the way a real module generator's ports do.  The Table 1
    "Terminals" column counts block pins only. *)

(** One endpoint of a net. *)
type pin =
  | Block_pin of { block : int; fx : float; fy : float }
      (** Pin of block [block] at offset [(fx * w, fy * h)] from the
          block's lower-left corner; [fx], [fy] in [[0, 1]]. *)
  | Pad of { px : float; py : float }
      (** Fixed external terminal at die-fraction coordinates. *)

type t = { id : int; name : string; pins : pin list }

val make : id:int -> name:string -> pins:pin list -> t
(** @raise Invalid_argument when [pins] is empty or a fraction is
    outside [[0, 1]]. *)

val block_pin : ?fx:float -> ?fy:float -> int -> pin
(** Pin on block [i]; offsets default to the block center (0.5, 0.5). *)

val pad : px:float -> py:float -> pin

val terminal_count : t -> int
(** Number of block pins (external pads excluded). *)

val blocks : t -> int list
(** Ids of the blocks this net touches, without duplicates, ascending. *)

val degree : t -> int
(** Total number of endpoints, pads included. *)
