open Mps_geometry
open Mps_netlist

(* Round-robin one-unit growth.  Each pass tries to widen then heighten
   every block by one unit; a unit is granted when the grown rectangle
   still fits the die, the block's designer maximum, and overlaps no
   other block at its current (already partly grown) dimensions.

   The overlap test is O(1) amortized, not a scan of every block.  The
   rects stay pairwise disjoint and grow only right and up from fixed
   lower-left corners, so widening block [i] by one unit can only hit a
   block [j] that meets the one-unit strip at [i]'s right edge, and such
   a [j] starts exactly at that edge: had it started further left, it
   would contain the column just inside the edge and, overlapping [i]
   in y, would already overlap [i].  So a widening is refused exactly
   when some block whose left edge equals [i]'s right edge overlaps [i]
   in y; heightening is the mirror case.  Blocks are sorted once by
   left (bottom) edge, and each block keeps a cursor at the first block
   not left of (below) its right (top) edge, which only moves forward.

   A refused unit stays refused: the blocker's edge and the refused
   block's edge are both fixed from then on, and intervals that only
   grow upward keep overlapping; the die and the designer maximum are
   fixed too.  So a refused axis is never tested again, and the
   sequence of granted units is that of the plain round-robin. *)
let expand circuit placement =
  let n = Circuit.n_blocks circuit in
  if Placement.n_blocks placement <> n then
    invalid_arg "Expand.expand: block count mismatch";
  if not (Placement.is_legal placement (Circuit.min_dims circuit)) then
    invalid_arg "Expand.expand: placement illegal at minimum dimensions";
  let min_dims = Circuit.min_dims circuit in
  let w = Array.init n (Dims.width min_dims) in
  let h = Array.init n (Dims.height min_dims) in
  let xs = Array.init n (fun i -> fst placement.Placement.coords.(i)) in
  let ys = Array.init n (fun i -> snd placement.Placement.coords.(i)) in
  let w_max = Array.init n (fun i -> Interval.hi (Circuit.block circuit i).Block.w_bounds) in
  let h_max = Array.init n (fun i -> Interval.hi (Circuit.block circuit i).Block.h_bounds) in
  let die_w = placement.Placement.die_w and die_h = placement.Placement.die_h in
  let by_x = Array.init n Fun.id and by_y = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare xs.(a) xs.(b)) by_x;
  Array.sort (fun a b -> Int.compare ys.(a) ys.(b)) by_y;
  let cur_x = Array.make n 0 and cur_y = Array.make n 0 in
  (* Is block [i]'s growth across [edge] blocked?  [order]/[lo] sort the
     blocks on the growth axis, [cur] is [i]'s cursor; [a]/[a_len] give
     the other axis's lows and extents, where [i] spans [[a0, a1)]. *)
  let blocked ~order ~lo ~cur ~a ~a_len i ~edge ~a0 ~a1 =
    let k = ref (Array.unsafe_get cur i) in
    while !k < n && Array.unsafe_get lo (Array.unsafe_get order !k) < edge do
      incr k
    done;
    Array.unsafe_set cur i !k;
    let hit = ref false in
    while (not !hit) && !k < n && Array.unsafe_get lo (Array.unsafe_get order !k) = edge do
      let j = Array.unsafe_get order !k in
      let b0 = Array.unsafe_get a j in
      if b0 < a1 && a0 < b0 + Array.unsafe_get a_len j then hit := true;
      incr k
    done;
    !hit
  in
  let open_w = Array.make n true and open_h = Array.make n true in
  let grow_w i =
    let edge = xs.(i) + w.(i) in
    if
      w.(i) >= w_max.(i)
      || edge + 1 > die_w
      || blocked ~order:by_x ~lo:xs ~cur:cur_x ~a:ys ~a_len:h i ~edge ~a0:ys.(i)
           ~a1:(ys.(i) + h.(i))
    then open_w.(i) <- false
    else w.(i) <- w.(i) + 1
  in
  let grow_h i =
    let edge = ys.(i) + h.(i) in
    if
      h.(i) >= h_max.(i)
      || edge + 1 > die_h
      || blocked ~order:by_y ~lo:ys ~cur:cur_y ~a:xs ~a_len:w i ~edge ~a0:xs.(i)
           ~a1:(xs.(i) + w.(i))
    then open_h.(i) <- false
    else h.(i) <- h.(i) + 1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if open_w.(i) then begin
        grow_w i;
        if open_w.(i) then changed := true
      end;
      if open_h.(i) then begin
        grow_h i;
        if open_h.(i) then changed := true
      end
    done
  done;
  Dimbox.of_dims_range ~lo:min_dims ~hi:(Dims.make ~w ~h)
