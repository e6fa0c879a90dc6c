type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: %d > %d" lo hi);
  { lo; hi }

let make_opt lo hi = if lo > hi then None else Some { lo; hi }

let point v = { lo = v; hi = v }

let lo t = t.lo
let hi t = t.hi

let length t = t.hi - t.lo + 1

let contains t v = t.lo <= v && v <= t.hi

let contains_interval ~outer ~inner = outer.lo <= inner.lo && inner.hi <= outer.hi

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let inter a b = make_opt (max a.lo b.lo) (min a.hi b.hi)

let overlap_length a b = max 0 (min a.hi b.hi - max a.lo b.lo + 1)

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let clamp t v = if v < t.lo then t.lo else if v > t.hi then t.hi else v

let before t ~limit = make_opt t.lo (min t.hi (limit - 1))

let after t ~limit = make_opt (max t.lo (limit + 1)) t.hi

let midpoint t = t.lo + ((t.hi - t.lo) / 2)

let fraction_of t ~of_ =
  float_of_int (overlap_length t of_) /. float_of_int (length of_)

let equal a b = a.lo = b.lo && a.hi = b.hi

let pp fmt t = Format.fprintf fmt "[%d..%d]" t.lo t.hi

let to_string t = Printf.sprintf "[%d..%d]" t.lo t.hi
