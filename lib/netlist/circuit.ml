open Mps_geometry

type t = {
  name : string;
  blocks : Block.t array;
  nets : Net.t array;
  symmetry : Symmetry.group list;
}

let make ~name ~blocks ~nets =
  Array.iteri
    (fun i (b : Block.t) ->
      if b.Block.id <> i then
        invalid_arg
          (Printf.sprintf "Circuit.make: block %s has id %d at index %d" b.Block.name
             b.Block.id i))
    blocks;
  let n = Array.length blocks in
  Array.iter
    (fun (net : Net.t) ->
      List.iter
        (fun b ->
          if b < 0 || b >= n then
            invalid_arg
              (Printf.sprintf "Circuit.make: net %s references unknown block %d"
                 net.Net.name b))
        (Net.blocks net))
    nets;
  { name; blocks; nets; symmetry = [] }

let with_symmetry t groups =
  Symmetry.validate ~n_blocks:(Array.length t.blocks) groups;
  { t with symmetry = groups }

let n_blocks t = Array.length t.blocks
let n_nets t = Array.length t.nets

let n_terminals t = Array.fold_left (fun acc net -> acc + Net.terminal_count net) 0 t.nets

let block t i = t.blocks.(i)

let dim_bounds t =
  Dimbox.make
    ~w:(Array.map (fun (b : Block.t) -> b.Block.w_bounds) t.blocks)
    ~h:(Array.map (fun (b : Block.t) -> b.Block.h_bounds) t.blocks)

let min_dims t =
  Dims.make
    ~w:(Array.map (fun b -> fst (Block.min_dims b)) t.blocks)
    ~h:(Array.map (fun b -> snd (Block.min_dims b)) t.blocks)

let max_dims t =
  Dims.make
    ~w:(Array.map (fun b -> fst (Block.max_dims b)) t.blocks)
    ~h:(Array.map (fun b -> snd (Block.max_dims b)) t.blocks)

let dims_valid t dims =
  Dims.n_blocks dims = n_blocks t
  && Array.for_all
       (fun (b : Block.t) ->
         Block.dims_valid b ~w:(Dims.width dims b.Block.id) ~h:(Dims.height dims b.Block.id))
       t.blocks

let total_max_area t = Array.fold_left (fun acc b -> acc + Block.max_area b) 0 t.blocks

(* Die area = (1 + slack) x total max block area. *)
let die_slack = 1.0

let default_die t =
  let area = float_of_int (total_max_area t) *. (1.0 +. die_slack) in
  (* Never smaller than the largest single block. *)
  let max_w =
    Array.fold_left (fun acc b -> max acc (fst (Block.max_dims b))) 1 t.blocks
  in
  let max_h =
    Array.fold_left (fun acc b -> max acc (snd (Block.max_dims b))) 1 t.blocks
  in
  let side = int_of_float (ceil (sqrt area)) in
  (max side max_w, max side max_h)

let pp fmt t =
  Format.fprintf fmt "%s: %d blocks, %d nets, %d terminals" t.name (n_blocks t) (n_nets t)
    (n_terminals t)
