open Mps_geometry

type t = {
  cols : int;
  rows : int;
  cell : int;
  cap : int;
  blocked : Bytes.t;  (** ['\001'] where blocked, by cell index *)
  used : int array;
}

let create ~die_w ~die_h ~cell ~capacity rects =
  if cell <= 0 then invalid_arg "Route_grid.create: non-positive cell size";
  if capacity <= 0 then invalid_arg "Route_grid.create: non-positive capacity";
  if die_w <= 0 || die_h <= 0 then invalid_arg "Route_grid.create: non-positive die";
  let cols = (die_w + cell - 1) / cell in
  let rows = (die_h + cell - 1) / cell in
  let blocked = Bytes.make (cols * rows) '\000' in
  (* Cell k's center (k + 1/2) * cell lies strictly inside (lo, hi)
     exactly when 2 lo < (2k + 1) cell < 2 hi; [span] is that range of
     k, clamped to the grid (a negative numerator truncates to a value
     the clamp or an empty range absorbs). *)
  let span lo hi n =
    (max 0 (((2 * lo) + cell) / (2 * cell)), min (n - 1) ((((2 * hi) + cell - 1) / (2 * cell)) - 1))
  in
  Array.iter
    (fun (r : Rect.t) ->
      let c0, c1 = span r.x (Rect.right r) cols and r0, r1 = span r.y (Rect.top r) rows in
      for c = c0 to c1 do
        if r1 >= r0 then Bytes.fill blocked ((c * rows) + r0) (r1 - r0 + 1) '\001'
      done)
    rects;
  { cols; rows; cell; cap = capacity; blocked; used = Array.make (cols * rows) 0 }

let cols t = t.cols
let rows t = t.rows

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let cell_of_point t ~x ~y =
  let c = clamp (int_of_float (x /. float_of_int t.cell)) 0 (t.cols - 1) in
  let r = clamp (int_of_float (y /. float_of_int t.cell)) 0 (t.rows - 1) in
  (c * t.rows) + r

let blocked t i = Bytes.get t.blocked i = '\001'
let unblock t i = Bytes.set t.blocked i '\000'
let usage t i = t.used.(i)
let occupy t i = t.used.(i) <- t.used.(i) + 1

let overflow t = Array.fold_left (fun acc u -> if u > t.cap then acc + u - t.cap else acc) 0 t.used
