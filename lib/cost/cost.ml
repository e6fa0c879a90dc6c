open Mps_geometry
open Mps_netlist

type weights = {
  wirelength : float;
  area : float;
  overlap : float;
  out_of_bounds : float;
  symmetry : float;
}

let weights =
  { wirelength = 1.0; area = 0.05; overlap = 10.0; out_of_bounds = 10.0; symmetry = 0.5 }

type breakdown = {
  hpwl : float;
  bbox_area : int;
  overlap_area : int;
  oob_area : int;
  symmetry_misalign : float;
  total : float;
}

(* Misalignment about the group set's common vertical axis.  The axis is
   fitted (mean of per-group ideal axes) rather than fixed, so the
   penalty is translation-invariant. *)
let symmetry_penalty circuit rects =
  match circuit.Circuit.symmetry with
  | [] -> 0.0
  | groups ->
    let center i = fst (Rect.center rects.(i)) in
    let group_axis = function
      | Symmetry.Pair { left; right } -> (center left +. center right) /. 2.0
      | Symmetry.Self i -> center i
    in
    let axes = List.map group_axis groups in
    let axis = List.fold_left ( +. ) 0.0 axes /. float_of_int (List.length axes) in
    let group_error = function
      | Symmetry.Pair { left; right } ->
        let mirror = abs_float (center left +. center right -. (2.0 *. axis)) in
        let vertical = abs_float (float_of_int (rects.(left).Rect.y - rects.(right).Rect.y)) in
        mirror +. vertical
      | Symmetry.Self i -> abs_float (center i -. axis)
    in
    List.fold_left (fun acc g -> acc +. group_error g) 0.0 groups

let total_overlap_area rects =
  let n = Array.length rects in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      acc := !acc + Rect.overlap_area rects.(i) rects.(j)
    done
  done;
  !acc

let total_oob_area ~die_w ~die_h rects =
  let die = Rect.make ~x:0 ~y:0 ~w:die_w ~h:die_h in
  Array.fold_left (fun acc r -> acc + (Rect.area r - Rect.overlap_area r die)) 0 rects

let evaluate circuit ~die_w ~die_h rects =
  if Array.length rects <> Circuit.n_blocks circuit then
    invalid_arg "Cost.evaluate: one rectangle per block required";
  let hpwl = Wirelength.total_hpwl circuit ~rects ~die_w ~die_h in
  (* direct fold over the array: no [Array.to_list] and no intermediate
     rects on what is the single hottest full-evaluation entry point *)
  let bbox_area =
    let n = Array.length rects in
    if n = 0 then 0
    else begin
      let r0 = rects.(0) in
      let min_x = ref r0.Rect.x and min_y = ref r0.Rect.y in
      let max_x = ref (Rect.right r0) and max_y = ref (Rect.top r0) in
      for i = 1 to n - 1 do
        let r = rects.(i) in
        if r.Rect.x < !min_x then min_x := r.Rect.x;
        if r.Rect.y < !min_y then min_y := r.Rect.y;
        let xr = Rect.right r and yt = Rect.top r in
        if xr > !max_x then max_x := xr;
        if yt > !max_y then max_y := yt
      done;
      (!max_x - !min_x) * (!max_y - !min_y)
    end
  in
  let overlap_area = total_overlap_area rects in
  let oob_area = total_oob_area ~die_w ~die_h rects in
  let symmetry_misalign = symmetry_penalty circuit rects in
  let total =
    (weights.wirelength *. hpwl)
    +. (weights.area *. float_of_int bbox_area)
    +. (weights.overlap *. float_of_int overlap_area)
    +. (weights.out_of_bounds *. float_of_int oob_area)
    +. (weights.symmetry *. symmetry_misalign)
  in
  { hpwl; bbox_area; overlap_area; oob_area; symmetry_misalign; total }

let total circuit ~die_w ~die_h rects = (evaluate circuit ~die_w ~die_h rects).total

let is_legal ~die_w ~die_h rects =
  Rect.any_overlap rects = None
  && Array.for_all (fun r -> Rect.inside r ~die_w ~die_h) rects
