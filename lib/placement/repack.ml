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

(* The warm re-pack: {!pack} then {!fit_die_in_place}, answered from
   the previous pack of the same placement.  A block's settled y is the
   lowest y at or above its corner clear of the earlier rects (in visit
   order) that overlap it in x — a function of its corner, its dims and
   those rects, nothing else.  So a block whose dims are unchanged and
   whose x-span meets no earlier rect that changed (old or new extent:
   the max of both widths) settles where it did last time, and only the
   others are re-settled, against the state's already-updated prefix.
   The state (corner x, dims and unshifted y per block) is
   authoritative; [out] is only ever written, all of it, so a caller
   that scribbles on it cannot corrupt the next answer. *)
type warm = {
  mutable key : int;  (** placement the state belongs to, [-1] for none *)
  mutable x : int array;
  mutable w : int array;
  mutable h : int array;
  mutable y : int array;  (** settled y before the die fit *)
  mutable span_lo : int array;  (** x-extents of the rects changed this pass *)
  mutable span_hi : int array;
  mutable clash_lo : int array;  (** y-ranges a settling block must clear *)
  mutable clash_hi : int array;
}

let warm () =
  {
    key = -1;
    x = [||];
    w = [||];
    h = [||];
    y = [||];
    span_lo = [||];
    span_hi = [||];
    clash_lo = [||];
    clash_hi = [||];
  }

let forget t = t.key <- -1

(* Settle block [i] (corner [x, y0], size [w x h]) on the first [oi]
   blocks of [order]: collect the y-ranges of those overlapping it in
   x, then jump past clashing ranges until none clashes — the same
   lowest clear y as {!pack}'s scan, from one pass over the prefix. *)
let settle t ~order ~oi ~x ~y0 ~w ~h =
  let xs = t.x and sw = t.w and sh = t.h and sy = t.y in
  let lo = t.clash_lo and hi = t.clash_hi in
  let m = ref 0 in
  for k = 0 to oi - 1 do
    let j = order.(k) in
    let xj = xs.(j) in
    if x < xj + sw.(j) && xj < x + w then begin
      lo.(!m) <- sy.(j);
      hi.(!m) <- sy.(j) + sh.(j);
      incr m
    end
  done;
  let yy = ref y0 and moved = ref true in
  while !moved do
    moved := false;
    for k = 0 to !m - 1 do
      if !yy < hi.(k) && lo.(k) < !yy + h then begin
        yy := hi.(k);
        moved := true
      end
    done
  done;
  !yy

let pack_warm t ~key ~order ~coords ~die_w ~die_h ~out dims =
  let n = Array.length coords in
  if Dims.n_blocks dims <> n then invalid_arg "Repack.pack_warm: block count mismatch";
  if Array.length out <> n || Array.length order <> n then
    invalid_arg "Repack.pack_warm: bad buffer length";
  if Array.length t.w <> n then begin
    t.x <- Array.make n 0;
    t.w <- Array.make n 0;
    t.h <- Array.make n 0;
    t.y <- Array.make n 0;
    t.span_lo <- Array.make n 0;
    t.span_hi <- Array.make n 0;
    t.clash_lo <- Array.make n 0;
    t.clash_hi <- Array.make n 0;
    t.key <- -1
  end;
  let cold = key < 0 || t.key <> key in
  (* No key while the state is half-updated: should anything raise
     mid-pass, the next call starts cold. *)
  t.key <- -1;
  let dw = Dims.unsafe_widths dims and dh = Dims.unsafe_heights dims in
  let xs = t.x and sw = t.w and sh = t.h and sy = t.y in
  let lo = t.span_lo and hi = t.span_hi in
  if cold then
    for i = 0 to n - 1 do
      xs.(i) <- fst coords.(i)
    done;
  let changed = ref 0 in
  (* the bounding box [fit_die_in_place] measures, over the state *)
  let min_x = ref max_int and min_y = ref max_int in
  let max_x = ref min_int and max_y = ref min_int in
  for oi = 0 to n - 1 do
    let i = order.(oi) in
    let x = xs.(i) and w = dw.(i) and h = dh.(i) in
    let ow = sw.(i) and oh = sh.(i) in
    let dirty = ref (cold || w <> ow || h <> oh) in
    let k = ref 0 in
    while (not !dirty) && !k < !changed do
      if x < hi.(!k) && lo.(!k) < x + w then dirty := true;
      incr k
    done;
    if !dirty then begin
      let y = settle t ~order ~oi ~x ~y0:(snd coords.(i)) ~w ~h in
      if (not cold) && (w <> ow || h <> oh || y <> sy.(i)) then begin
        lo.(!changed) <- x;
        hi.(!changed) <- (x + if w >= ow then w else ow);
        incr changed
      end;
      sw.(i) <- w;
      sh.(i) <- h;
      sy.(i) <- y
    end;
    let y = sy.(i) in
    if x < !min_x then min_x := x;
    if y < !min_y then min_y := y;
    if x + w > !max_x then max_x := x + w;
    if y + h > !max_y then max_y := y + h
  done;
  (* [fit_die_in_place]'s translation, then every rect written. *)
  if n > 0 then begin
    let dx = shift_amount (!max_x - !min_x) !min_x !max_x die_w in
    let dy = shift_amount (!max_y - !min_y) !min_y !max_y die_h in
    for i = 0 to n - 1 do
      let r = out.(i) in
      r.Rect.x <- xs.(i) + dx;
      r.Rect.y <- sy.(i) + dy;
      r.Rect.w <- sw.(i);
      r.Rect.h <- sh.(i)
    done
  end;
  t.key <- key

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
