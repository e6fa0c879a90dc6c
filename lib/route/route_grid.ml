open Mps_geometry

type t = {
  cols : int;
  rows : int;
  cell : int;
  cap : int;
  blocked : bool array array;  (** [row].[col] *)
  used : int array array;
}

let create ~die_w ~die_h ~cell ~capacity rects =
  if cell <= 0 then invalid_arg "Route_grid.create: non-positive cell size";
  if capacity <= 0 then invalid_arg "Route_grid.create: non-positive capacity";
  if die_w <= 0 || die_h <= 0 then invalid_arg "Route_grid.create: non-positive die";
  let cols = (die_w + cell - 1) / cell in
  let rows = (die_h + cell - 1) / cell in
  let blocked = Array.make_matrix rows cols false in
  let used = Array.make_matrix rows cols 0 in
  let t = { cols; rows; cell; cap = capacity; blocked; used } in
  (* block cells whose center lies strictly inside a rectangle *)
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let cx = (float_of_int c +. 0.5) *. float_of_int cell in
      let cy = (float_of_int r +. 0.5) *. float_of_int cell in
      let inside rect =
        cx > float_of_int rect.Rect.x
        && cx < float_of_int (Rect.right rect)
        && cy > float_of_int rect.Rect.y
        && cy < float_of_int (Rect.top rect)
      in
      if Array.exists inside rects then blocked.(r).(c) <- true
    done
  done;
  t

let cols t = t.cols
let rows t = t.rows

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let cell_of_point t ~x ~y =
  let c = clamp (int_of_float (x /. float_of_int t.cell)) 0 (t.cols - 1) in
  let r = clamp (int_of_float (y /. float_of_int t.cell)) 0 (t.rows - 1) in
  (c, r)

let center_of_cell t (c, r) =
  ( (float_of_int c +. 0.5) *. float_of_int t.cell,
    (float_of_int r +. 0.5) *. float_of_int t.cell )

let in_grid t (c, r) = c >= 0 && c < t.cols && r >= 0 && r < t.rows

let blocked t (c, r) =
  if not (in_grid t (c, r)) then invalid_arg "Route_grid.blocked: outside grid";
  t.blocked.(r).(c)

let unblock t (c, r) =
  if not (in_grid t (c, r)) then invalid_arg "Route_grid.unblock: outside grid";
  t.blocked.(r).(c) <- false

let usage t (c, r) =
  if not (in_grid t (c, r)) then invalid_arg "Route_grid.usage: outside grid";
  t.used.(r).(c)

let occupy t (c, r) =
  if not (in_grid t (c, r)) then invalid_arg "Route_grid.occupy: outside grid";
  t.used.(r).(c) <- t.used.(r).(c) + 1

let overflow t =
  let acc = ref 0 in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      if t.used.(r).(c) > t.cap then acc := !acc + (t.used.(r).(c) - t.cap)
    done
  done;
  !acc

let neighbors_all t (c, r) =
  List.filter (in_grid t) [ (c - 1, r); (c + 1, r); (c, r - 1); (c, r + 1) ]
