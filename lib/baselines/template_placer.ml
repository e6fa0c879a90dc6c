open Mps_geometry
open Mps_netlist

type t = {
  circuit : Circuit.t;
  coords : (int * int) array;
  die_w : int;
  die_h : int;
}

let build ?(iterations = 2000) ~rng circuit ~die_w ~die_h =
  let nominal = Mps_geometry.Dimbox.center (Circuit.dim_bounds circuit) in
  let sa = Sa_placer.place ~iterations ~rng circuit ~die_w ~die_h nominal in
  let coords =
    Array.map (fun r -> (r.Rect.x, r.Rect.y)) sa.Mps_placement.Coord_opt.rects
  in
  { circuit; coords; die_w; die_h }

let die t = (t.die_w, t.die_h)

let instantiate t dims =
  if Dims.n_blocks dims <> Array.length t.coords then
    invalid_arg "Template_placer.instantiate: size mismatch";
  Mps_placement.Repack.instantiate ~die:(t.die_w, t.die_h) ~coords:t.coords dims
