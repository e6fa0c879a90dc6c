(* Placement Expansion as it stood before the O(1) growth tests: every
   unit re-checks the grown block against all others.  Kept as the
   oracle the exactness tests compare [Expand.expand] against
   ([test_placement.ml]).  Not used by the library. *)

open Mps_placement
open Mps_geometry
open Mps_netlist

(* Round-robin one-unit growth.  Each pass tries to widen then heighten
   every block by one unit; a unit is granted when the grown rectangle
   still fits the die, the block's designer maximum, and overlaps no
   other block at its current (already partly grown) dimensions. *)
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
  let die_w = placement.Placement.die_w and die_h = placement.Placement.die_h in
  (* Every granted unit re-checks the grown block against all others, so
     this runs O(n) times per unit across thousands of units: plain int
     comparisons on the coordinate arrays in a [while] loop — no Rect,
     and no closure per call.  Block [j] is clear of the grown rect when
     it lies wholly left, right, below or above it. *)
  let fits i cw ch =
    let x = xs.(i) and y = ys.(i) in
    let x2 = x + cw and y2 = y + ch in
    x >= 0 && y >= 0 && x2 <= die_w && y2 <= die_h
    &&
    let j = ref 0 in
    while
      !j < n
      && (!j = i
         ||
         let xj = Array.unsafe_get xs !j and yj = Array.unsafe_get ys !j in
         x2 <= xj || xj + Array.unsafe_get w !j <= x || y2 <= yj
         || yj + Array.unsafe_get h !j <= y)
    do
      incr j
    done;
    !j >= n
  in
  let grow_w i =
    let blk = Circuit.block circuit i in
    if w.(i) >= Interval.hi blk.Block.w_bounds then false
    else if fits i (w.(i) + 1) h.(i) then begin
      w.(i) <- w.(i) + 1;
      true
    end
    else false
  in
  let grow_h i =
    let blk = Circuit.block circuit i in
    if h.(i) >= Interval.hi blk.Block.h_bounds then false
    else if fits i w.(i) (h.(i) + 1) then begin
      h.(i) <- h.(i) + 1;
      true
    end
    else false
  in
  let rec passes () =
    let changed = ref false in
    for i = 0 to n - 1 do
      if grow_w i then changed := true;
      if grow_h i then changed := true
    done;
    if !changed then passes ()
  in
  passes ();
  Dimbox.of_dims_range ~lo:min_dims ~hi:(Dims.make ~w ~h)

