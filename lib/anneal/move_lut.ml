open Mps_rng

(* Flat per-slot bounds.  [span] is redundant with [lo]/[hi] but keeps
   the draw to one load + one unchecked Random call; [hi] keeps the
   clamp to two int-specialized compares.  All three arrays are
   written once at build time and never mutated, so a LUT can be read
   from any domain. *)
type t = {
  lo : int array;
  hi : int array;
  span : int array; (* hi - lo + 1, always >= 1 *)
}

let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

let make ~n ~lo:lo_f ~hi:hi_f =
  if n < 0 then invalid_arg "Move_lut.make: negative slot count";
  let lo = Array.make (max 1 n) 0 in
  let hi = Array.make (max 1 n) 0 in
  let span = Array.make (max 1 n) 1 in
  for i = 0 to n - 1 do
    let l = lo_f i and h = hi_f i in
    if l > h then
      invalid_arg (Printf.sprintf "Move_lut.make: empty range [%d, %d] at slot %d" l h i);
    lo.(i) <- l;
    hi.(i) <- h;
    span.(i) <- h - l + 1
  done;
  { lo; hi; span }

let[@inline] draw t rng i =
  Array.unsafe_get t.lo i + Rng.unsafe_int rng (Array.unsafe_get t.span i)

let[@inline] clamp t i v = imin (Array.unsafe_get t.hi i) (imax (Array.unsafe_get t.lo i) v)

let[@inline] draw_shift t rng i ~cur ~max_shift =
  let v = cur - max_shift + Rng.unsafe_int rng ((2 * max_shift) + 1) in
  clamp t i v
