(** Device-level descriptions of analog modules.

    A device is what the sizing optimizer manipulates; the module
    generator ({!Module_gen}) turns it into realizable block dimensions.
    Electrical sizes are in conventional units (µm, fF, Ω). *)

type t =
  | Mos of { w_um : float; l_um : float }
      (** Single MOS transistor: total gate width and length. *)
  | Mos_pair of { w_um : float; l_um : float }
      (** Matched pair (differential pair, simple mirror): two devices of
          [w_um] each, laid out interdigitated. *)
  | Mos_quad of { w_um : float; l_um : float }
      (** Cross-coupled quad (common-centroid): four matched devices. *)
  | Capacitor of { c_ff : float }  (** MiM capacitor. *)
  | Resistor of { r_ohm : float }  (** Serpentine poly resistor. *)

val scale : t -> float -> t
(** [scale d k] multiplies the electrical size ([w_um], [c_ff] or
    [r_ohm]) by [k > 0]; gate length is left unchanged. *)

val to_string : t -> string
