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

(* A generic 0.35 um metal stack: wire resistance and capacitance per
   layout grid unit, and the fixed contact/via capacitance per net
   endpoint. *)
let r_ohm_per_unit = 0.35
let c_ff_per_unit = 0.25
let c_ff_per_pin = 1.5

let extract circuit routing =
  let nets =
    Array.map
      (fun (net : Net.t) ->
        let length = Router.routed_length routing net.Net.id in
        let pins = float_of_int (Net.degree net) in
        {
          net_id = net.Net.id;
          resistance_ohm = r_ohm_per_unit *. length;
          capacitance_ff = (c_ff_per_unit *. length) +. (c_ff_per_pin *. pins);
        })
      circuit.Circuit.nets
  in
  {
    nets;
    total_capacitance_ff = Array.fold_left (fun acc n -> acc +. n.capacitance_ff) 0.0 nets;
    total_resistance_ohm = Array.fold_left (fun acc n -> acc +. n.resistance_ohm) 0.0 nets;
  }

let net_capacitance t id =
  match Array.find_opt (fun n -> n.net_id = id) t.nets with
  | Some n -> n.capacitance_ff
  | None -> invalid_arg "Extraction.net_capacitance: unknown net"
