(** Parasitic extraction from routed wirelength — the "Circuit
    Extraction" box of the paper's synthesis loop (Fig. 1b).

    First-order RC from per-net routed lengths: each net gets a lumped
    resistance and capacitance proportional to its length plus a fixed
    via/pin term per endpoint.  Constants model a generic 0.35 µm metal
    stack; the shape (parasitics grow with routed length, so placement
    quality degrades bandwidth) is what matters. *)

open Mps_netlist

type net_parasitics = {
  net_id : int;
  resistance_ohm : float;
  capacitance_ff : float;
}

type t = {
  nets : net_parasitics array;
  total_capacitance_ff : float;
  total_resistance_ohm : float;
}

val extract : Circuit.t -> Router.t -> t
(** Lumped RC per net of a routed floorplan: 0.35 Ω and 0.25 fF per
    routed grid unit, plus 1.5 fF per net endpoint. *)

val net_capacitance : t -> int -> float
(** Capacitance of one net by id.
    @raise Invalid_argument on an unknown id. *)
