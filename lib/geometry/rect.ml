type t = { mutable x : int; mutable y : int; mutable w : int; mutable h : int }

(* Int-specialized [min]/[max]: the polymorphic ones cost a generic
   compare call each, and [overlap_area] sits in O(n^2) cost loops. *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

let make ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then
    invalid_arg (Printf.sprintf "Rect.make: non-positive size %dx%d" w h);
  { x; y; w; h }

let set t ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then
    invalid_arg (Printf.sprintf "Rect.set: non-positive size %dx%d" w h);
  t.x <- x;
  t.y <- y;
  t.w <- w;
  t.h <- h

let area t = t.w * t.h

let right t = t.x + t.w
let top t = t.y + t.h

let center t =
  ( float_of_int t.x +. (float_of_int t.w /. 2.0),
    float_of_int t.y +. (float_of_int t.h /. 2.0) )

let overlaps a b =
  a.x < right b && b.x < right a && a.y < top b && b.y < top a

let overlap_area a b =
  let dx = imin (right a) (right b) - imax a.x b.x in
  let dy = imin (top a) (top b) - imax a.y b.y in
  if dx > 0 && dy > 0 then dx * dy else 0

let translate t ~dx ~dy = { t with x = t.x + dx; y = t.y + dy }

let inside t ~die_w ~die_h = t.x >= 0 && t.y >= 0 && right t <= die_w && top t <= die_h

let bounding_box = function
  | [] -> None
  | r :: rest ->
    let f acc r =
      let x = imin acc.x r.x and y = imin acc.y r.y in
      let xr = imax (right acc) (right r) and yt = imax (top acc) (top r) in
      { x; y; w = xr - x; h = yt - y }
    in
    Some (List.fold_left f r rest)

let any_overlap rects =
  let n = Array.length rects in
  let rec outer i =
    if i >= n then None
    else
      let rec inner j =
        if j >= n then outer (i + 1)
        else if overlaps rects.(i) rects.(j) then Some (i, j)
        else inner (j + 1)
      in
      inner (i + 1)
  in
  outer 0

let equal a b = a.x = b.x && a.y = b.y && a.w = b.w && a.h = b.h

let pp fmt t = Format.fprintf fmt "(%d,%d %dx%d)" t.x t.y t.w t.h
