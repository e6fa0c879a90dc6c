open Mps_modgen

type rc = {
  resistance_ohm : float;
  capacitance_ff : float;
}

(* A generic 0.35 µm metal stack: wire resistance and capacitance per
   µm, and the fixed contact/via capacitance per net endpoint. *)
let r_ohm_per_um = 1.0
let c_ff_per_um = 0.25 /. 0.35
let c_ff_per_pin = 1.5

(* Per-µm constant times the pitch first, then the length: at a 350 nm
   grid the products are exactly 0.35 and 0.25 per grid unit. *)
let net_rc process ~length ~endpoints =
  let um_per_unit = float_of_int process.Process.grid_nm /. 1000.0 in
  {
    resistance_ohm = r_ohm_per_um *. um_per_unit *. length;
    capacitance_ff =
      (c_ff_per_um *. um_per_unit *. length) +. (c_ff_per_pin *. float_of_int endpoints);
  }
