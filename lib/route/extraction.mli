(** Parasitic extraction — the "Circuit Extraction" box of the paper's
    synthesis loop (Fig. 1b).

    One first-order model prices every wire, whatever measured its
    length (the router or a half-perimeter estimate): a lumped
    resistance of 1.0 Ω/µm and a capacitance of 0.25 fF per 0.35 µm
    (~0.71 fF/µm), plus 1.5 fF of contact/via capacitance per
    endpoint.  Lengths arrive in layout grid units and become µm
    through the process's [grid_nm], so the same wire costs the same
    at any grid pitch.  Constants model a generic
    0.35 µm metal stack; the shape (parasitics grow with wire length, so
    placement quality degrades bandwidth) is what matters. *)

open Mps_modgen

(** Lumped parasitics of one net. *)
type rc = {
  resistance_ohm : float;
  capacitance_ff : float;
}

val net_rc : Process.t -> length:float -> endpoints:int -> rc
(** RC of a net [length] layout grid units long with [endpoints]
    endpoints.  At {!Mps_modgen.Process.default} (350 nm grid) that is
    exactly 0.35 Ω and 0.25 fF per grid unit plus 1.5 fF per endpoint. *)
