open Mps_geometry

type t = {
  id : int;
  name : string;
  w_bounds : Interval.t;
  h_bounds : Interval.t;
}

let make ~id ~name ~w_bounds ~h_bounds =
  if id < 0 then invalid_arg "Block.make: negative id";
  if Interval.lo w_bounds <= 0 || Interval.lo h_bounds <= 0 then
    invalid_arg "Block.make: non-positive minimum dimension";
  { id; name; w_bounds; h_bounds }

let make_wh ~id ~name ~w:(wm, wM) ~h:(hm, hM) =
  make ~id ~name ~w_bounds:(Interval.make wm wM) ~h_bounds:(Interval.make hm hM)

let min_dims t = (Interval.lo t.w_bounds, Interval.lo t.h_bounds)
let max_dims t = (Interval.hi t.w_bounds, Interval.hi t.h_bounds)

let max_area t = Interval.hi t.w_bounds * Interval.hi t.h_bounds

let dims_valid t ~w ~h = Interval.contains t.w_bounds w && Interval.contains t.h_bounds h

let equal a b =
  a.id = b.id && String.equal a.name b.name
  && Interval.equal a.w_bounds b.w_bounds
  && Interval.equal a.h_bounds b.h_bounds

let pp fmt t =
  Format.fprintf fmt "%s#%d w:%a h:%a" t.name t.id Interval.pp t.w_bounds Interval.pp
    t.h_bounds
