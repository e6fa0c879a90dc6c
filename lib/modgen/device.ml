type t =
  | Mos of { w_um : float; l_um : float }
  | Mos_pair of { w_um : float; l_um : float }
  | Mos_quad of { w_um : float; l_um : float }
  | Capacitor of { c_ff : float }
  | Resistor of { r_ohm : float }

let scale t k =
  if k <= 0.0 then invalid_arg "Device.scale: non-positive factor";
  match t with
  | Mos { w_um; l_um } -> Mos { w_um = w_um *. k; l_um }
  | Mos_pair { w_um; l_um } -> Mos_pair { w_um = w_um *. k; l_um }
  | Mos_quad { w_um; l_um } -> Mos_quad { w_um = w_um *. k; l_um }
  | Capacitor { c_ff } -> Capacitor { c_ff = c_ff *. k }
  | Resistor { r_ohm } -> Resistor { r_ohm = r_ohm *. k }

let pp fmt = function
  | Mos { w_um; l_um } -> Format.fprintf fmt "mos(W=%.2fu L=%.2fu)" w_um l_um
  | Mos_pair { w_um; l_um } -> Format.fprintf fmt "pair(W=%.2fu L=%.2fu)" w_um l_um
  | Mos_quad { w_um; l_um } -> Format.fprintf fmt "quad(W=%.2fu L=%.2fu)" w_um l_um
  | Capacitor { c_ff } -> Format.fprintf fmt "cap(%.1ffF)" c_ff
  | Resistor { r_ohm } -> Format.fprintf fmt "res(%.0fohm)" r_ohm

let to_string t = Format.asprintf "%a" pp t
