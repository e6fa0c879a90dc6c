open Mps_rng
open Mps_geometry
open Mps_netlist

type t = {
  coords : (int * int) array;
  die_w : int;
  die_h : int;
}

let make ~coords ~die_w ~die_h =
  if die_w <= 0 || die_h <= 0 then invalid_arg "Placement.make: non-positive die";
  { coords = Array.copy coords; die_w; die_h }

let n_blocks t = Array.length t.coords

let rects t dims =
  if Dims.n_blocks dims <> n_blocks t then
    invalid_arg "Placement.rects: block count mismatch";
  Array.mapi
    (fun i (x, y) -> Rect.make ~x ~y ~w:(Dims.width dims i) ~h:(Dims.height dims i))
    t.coords

let rects_into out t dims =
  let n = n_blocks t in
  if Dims.n_blocks dims <> n then invalid_arg "Placement.rects_into: block count mismatch";
  if Array.length out <> n then invalid_arg "Placement.rects_into: bad buffer length";
  for i = 0 to n - 1 do
    let x, y = t.coords.(i) in
    Rect.set out.(i) ~x ~y ~w:(Dims.width dims i) ~h:(Dims.height dims i)
  done

let is_legal t dims =
  let rs = rects t dims in
  Rect.any_overlap rs = None
  && Array.for_all (fun r -> Rect.inside r ~die_w:t.die_w ~die_h:t.die_h) rs

(* Random legal-at-min-dims placement by per-block rejection sampling
   with whole-placement restarts. *)
let random rng circuit ~die_w ~die_h =
  let n = Circuit.n_blocks circuit in
  let min_dims = Circuit.min_dims circuit in
  let tries_per_block = 200 and restarts = 50 in
  let place_all () =
    let placed = ref [] in
    let coords = Array.make n (0, 0) in
    let rec place_block i tries =
      if i >= n then Some coords
      else if tries > tries_per_block then None
      else begin
        let w = Dims.width min_dims i and h = Dims.height min_dims i in
        if w > die_w || h > die_h then
          failwith
            (Printf.sprintf "Placement.random: block %d min dims %dx%d exceed die" i w h);
        let x = Rng.int_in rng 0 (die_w - w) in
        let y = Rng.int_in rng 0 (die_h - h) in
        let r = Rect.make ~x ~y ~w ~h in
        if List.exists (Rect.overlaps r) !placed then place_block i (tries + 1)
        else begin
          placed := r :: !placed;
          coords.(i) <- (x, y);
          place_block (i + 1) 0
        end
      end
    in
    place_block 0 0
  in
  let rec attempt k =
    if k >= restarts then
      failwith "Placement.random: could not find a legal min-dims placement"
    else
      match place_all () with
      | Some coords -> { coords; die_w; die_h }
      | None -> attempt (k + 1)
  in
  attempt 0

let move_block t i ~x ~y =
  let coords = Array.copy t.coords in
  coords.(i) <- (x, y);
  { t with coords }

let equal a b = a.coords = b.coords && a.die_w = b.die_w && a.die_h = b.die_h
