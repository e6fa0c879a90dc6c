type pin =
  | Block_pin of { block : int; fx : float; fy : float }
  | Pad of { px : float; py : float }

type t = { id : int; name : string; pins : pin list }

let frac_ok f = f >= 0.0 && f <= 1.0

let make ~id ~name ~pins =
  if pins = [] then invalid_arg "Net.make: empty pin list";
  let check = function
    | Block_pin { block; fx; fy } ->
      if block < 0 then invalid_arg "Net.make: negative block id";
      if not (frac_ok fx && frac_ok fy) then invalid_arg "Net.make: pin fraction out of [0,1]"
    | Pad { px; py } ->
      if not (frac_ok px && frac_ok py) then invalid_arg "Net.make: pad fraction out of [0,1]"
  in
  List.iter check pins;
  { id; name; pins }

let block_pin ?(fx = 0.5) ?(fy = 0.5) block = Block_pin { block; fx; fy }

let pad ~px ~py = Pad { px; py }

let terminal_count t =
  let is_block_pin = function Block_pin _ -> true | Pad _ -> false in
  List.length (List.filter is_block_pin t.pins)

let blocks t =
  let ids =
    List.filter_map (function Block_pin { block; _ } -> Some block | Pad _ -> None) t.pins
  in
  List.sort_uniq Int.compare ids

let degree t = List.length t.pins
