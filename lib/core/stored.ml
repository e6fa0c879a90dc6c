open Mps_geometry
open Mps_placement

type t = {
  placement : Placement.t;
  box : Dimbox.t;
  expansion : Dimbox.t;
  avg_cost : float;
  best_cost : float;
  best_dims : Dims.t;
  template_like : bool;
}

let make ~template_like ~placement ~box ~expansion ~avg_cost ~best_cost ~best_dims =
  if (not template_like) && not (Dimbox.contains_box ~outer:expansion ~inner:box) then
    invalid_arg "Stored.make: validity box exceeds the expansion box";
  if not (Dimbox.contains box best_dims) then
    invalid_arg "Stored.make: best_dims outside the validity box";
  { placement; box; expansion; avg_cost; best_cost; best_dims; template_like }

let with_box t box =
  if (not t.template_like) && not (Dimbox.contains_box ~outer:t.expansion ~inner:box)
  then invalid_arg "Stored.with_box: box exceeds the expansion box";
  { t with box; best_dims = Dimbox.clamp box t.best_dims }

let follows_backup ~backup t =
  (not t.template_like) || Placement.equal t.placement backup.placement

let n_blocks t = Placement.n_blocks t.placement

let instantiate t dims = Placement.rects t.placement dims

let instantiate_repacked t dims =
  Repack.instantiate
    ~die:(t.placement.Placement.die_w, t.placement.Placement.die_h)
    ~coords:t.placement.Placement.coords dims

let instantiate_into t ~out dims = Placement.rects_into out t.placement dims

let instantiate_repacked_into t ~order ~out dims =
  Repack.pack ~order ~out ~coords:t.placement.Placement.coords dims;
  Repack.fit_die_in_place ~die_w:t.placement.Placement.die_w
    ~die_h:t.placement.Placement.die_h out

let instantiate_auto t dims =
  if Dimbox.contains t.expansion dims then instantiate t dims
  else instantiate_repacked t dims
