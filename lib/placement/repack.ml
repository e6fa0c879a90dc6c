open Mps_geometry

(* Translate the packed floorplan back toward the origin so it fits the
   die when its bounding box allows (independently per axis). *)
let[@inline] shift_amount extent lo hi die =
  if extent <= die then max (-lo) (-(max 0 (hi - die))) else -lo

let fit_die_in_place ~die_w ~die_h out =
  let n = Array.length out in
  if n > 0 then begin
    let r0 = out.(0) in
    let min_x = ref r0.Rect.x and min_y = ref r0.Rect.y in
    let max_x = ref (Rect.right r0) and max_y = ref (Rect.top r0) in
    for i = 1 to n - 1 do
      let r = out.(i) in
      if r.Rect.x < !min_x then min_x := r.Rect.x;
      if r.Rect.y < !min_y then min_y := r.Rect.y;
      if Rect.right r > !max_x then max_x := Rect.right r;
      if Rect.top r > !max_y then max_y := Rect.top r
    done;
    let dx = shift_amount (!max_x - !min_x) !min_x !max_x die_w in
    let dy = shift_amount (!max_y - !min_y) !min_y !max_y die_h in
    if dx <> 0 || dy <> 0 then
      for i = 0 to n - 1 do
        let r = out.(i) in
        r.Rect.x <- r.Rect.x + dx;
        r.Rect.y <- r.Rect.y + dy
      done
  end

let order coords =
  let order = Array.init (Array.length coords) Fun.id in
  Array.sort
    (fun i j ->
      let xi, yi = coords.(i) and xj, yj = coords.(j) in
      match Int.compare xi xj with 0 -> Int.compare yi yj | c -> c)
    order;
  order

(* The allocation-free kernel: the visit order depends on the
   coordinates only, so callers compute it once per placement and every
   re-pack just scans the already-placed prefix [order.(0 .. oi-1)] of
   the caller's buffer.  A block that clashes with placed rect [r] can
   jump straight to [r]'s top: every y below it still clashes with
   [r], so the block still settles at the lowest free y at or above
   its corner. *)
let pack ~order ~out ~coords dims =
  let n = Array.length coords in
  if Dims.n_blocks dims <> n then invalid_arg "Repack.pack: block count mismatch";
  if Array.length out <> n || Array.length order <> n then
    invalid_arg "Repack.pack: bad buffer length";
  for oi = 0 to n - 1 do
    let i = order.(oi) in
    let x, y = coords.(i) in
    let w = Dims.width dims i and h = Dims.height dims i in
    let yy = ref y in
    let moved = ref true in
    while !moved do
      moved := false;
      for k = 0 to oi - 1 do
        let r = out.(order.(k)) in
        if x < r.Rect.x + r.Rect.w && r.Rect.x < x + w && !yy < r.Rect.y + r.Rect.h
           && r.Rect.y < !yy + h
        then begin
          yy := r.Rect.y + r.Rect.h;
          moved := true
        end
      done
    done;
    Rect.set out.(i) ~x ~y:!yy ~w ~h
  done

let instantiate ?die ~coords dims =
  let n = Array.length coords in
  if Dims.n_blocks dims <> n then invalid_arg "Repack.instantiate: block count mismatch";
  let out =
    Array.init n (fun i ->
        Rect.make ~x:0 ~y:0 ~w:(Dims.width dims i) ~h:(Dims.height dims i))
  in
  pack ~order:(order coords) ~out ~coords dims;
  (match die with
   | None -> ()
   | Some (die_w, die_h) -> fit_die_in_place ~die_w ~die_h out);
  out
