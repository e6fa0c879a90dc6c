(* The maze router as it stood before the flat-array rewrite: a
   row-major matrix grid, a [Set.Make] priority queue on (cost, column,
   row), two fresh matrices per wave, [List.mem] over the tree and a
   [Hashtbl] of results.  Kept as the oracle the identity tests compare
   [Router.route] against ([test_route.ml]).  Not used by the library. *)

open Mps_geometry
open Mps_netlist

let cell = 4
let capacity = 4
let congestion_penalty = 2
let over_block_penalty = 8

type grid = {
  cols : int;
  rows : int;
  blocked : bool array array;  (** [row].[col] *)
  used : int array array;
}

let create_grid ~die_w ~die_h rects =
  let cols = (die_w + cell - 1) / cell in
  let rows = (die_h + cell - 1) / cell in
  let blocked = Array.make_matrix rows cols false in
  let used = Array.make_matrix rows cols 0 in
  (* block cells whose center lies strictly inside a rectangle *)
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let cx = (float_of_int c +. 0.5) *. float_of_int cell in
      let cy = (float_of_int r +. 0.5) *. float_of_int cell in
      let inside rect =
        cx > float_of_int rect.Rect.x
        && cx < float_of_int (Rect.right rect)
        && cy > float_of_int rect.Rect.y
        && cy < float_of_int (Rect.top rect)
      in
      if Array.exists inside rects then blocked.(r).(c) <- true
    done
  done;
  { cols; rows; blocked; used }

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let cell_of_point g ~x ~y =
  let c = clamp (int_of_float (x /. float_of_int cell)) 0 (g.cols - 1) in
  let r = clamp (int_of_float (y /. float_of_int cell)) 0 (g.rows - 1) in
  (c, r)

let in_grid g (c, r) = c >= 0 && c < g.cols && r >= 0 && r < g.rows

let neighbors_all g (c, r) =
  List.filter (in_grid g) [ (c - 1, r); (c + 1, r); (c, r - 1); (c, r + 1) ]

let overflow g =
  let acc = ref 0 in
  for r = 0 to g.rows - 1 do
    for c = 0 to g.cols - 1 do
      if g.used.(r).(c) > capacity then acc := !acc + (g.used.(r).(c) - capacity)
    done
  done;
  !acc

type routed_net = {
  net_id : int;
  cells : (int * int) list;
  length : float;
  routed : bool;
}

type t = {
  nets : routed_net array;
  total_length : float;
  overflow : int;
  failed_nets : int;
}

let wave g ~sources ~target =
  let dist = Array.make_matrix g.rows g.cols max_int in
  let parent = Array.make_matrix g.rows g.cols None in
  let module Pq = Set.Make (struct
    type t = int * (int * int)

    let compare (ca, (xa, ya)) (cb, (xb, yb)) =
      match Int.compare ca cb with
      | 0 -> ( match Int.compare xa xb with 0 -> Int.compare ya yb | c -> c)
      | c -> c
  end) in
  let pq = ref Pq.empty in
  List.iter
    (fun ((c, r) as cell) ->
      if dist.(r).(c) > 0 then begin
        dist.(r).(c) <- 0;
        pq := Pq.add (0, cell) !pq
      end)
    sources;
  let cell_cost (c, r) =
    1
    + (congestion_penalty * g.used.(r).(c))
    + if g.blocked.(r).(c) then over_block_penalty else 0
  in
  let rec loop () =
    match Pq.min_elt_opt !pq with
    | None -> None
    | Some ((d, ((c, r) as cell)) as entry) ->
      pq := Pq.remove entry !pq;
      if cell = target then Some cell
      else if d > dist.(r).(c) then loop ()
      else begin
        List.iter
          (fun ((c', r') as next) ->
            let nd = d + cell_cost next in
            if nd < dist.(r').(c') then begin
              dist.(r').(c') <- nd;
              parent.(r').(c') <- Some cell;
              pq := Pq.add (nd, next) !pq
            end)
          (neighbors_all g cell);
        loop ()
      end
  in
  match loop () with
  | None -> None
  | Some _ ->
    let rec back acc ((c, r) as cell) =
      match parent.(r).(c) with
      | None -> cell :: acc
      | Some prev -> back (cell :: acc) prev
    in
    Some (back [] target)

let route circuit ~die_w ~die_h rects =
  if Array.length rects <> Circuit.n_blocks circuit then
    invalid_arg "Router_ref.route: one rectangle per block required";
  let g = create_grid ~die_w ~die_h rects in
  let pin_cell pin =
    let x, y = Mps_cost.Wirelength.pin_position pin ~rects ~die_w ~die_h in
    let (c, r) as cell = cell_of_point g ~x ~y in
    g.blocked.(r).(c) <- false;
    cell
  in
  let order =
    List.sort
      (fun a b -> Int.compare (Net.degree b) (Net.degree a))
      (Array.to_list circuit.Circuit.nets)
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun net ->
      let pins = List.sort_uniq compare (List.map pin_cell net.Net.pins) in
      match pins with
      | [] | [ _ ] ->
        Hashtbl.replace results net.Net.id
          { net_id = net.Net.id; cells = pins; length = 0.0; routed = true }
      | first :: rest ->
        let tree = ref [ first ] in
        let complete = ref true in
        List.iter
          (fun pin ->
            if not (List.mem pin !tree) then
              match wave g ~sources:!tree ~target:pin with
              | Some path ->
                List.iter
                  (fun cell -> if not (List.mem cell !tree) then tree := cell :: !tree)
                  path
              | None -> complete := false)
          rest;
        if !complete then begin
          List.iter (fun (c, r) -> g.used.(r).(c) <- g.used.(r).(c) + 1) !tree;
          let length = float_of_int ((List.length !tree - 1) * cell) in
          Hashtbl.replace results net.Net.id
            { net_id = net.Net.id; cells = !tree; length; routed = true }
        end
        else
          let length = Mps_cost.Wirelength.net_hpwl net ~rects ~die_w ~die_h in
          Hashtbl.replace results net.Net.id
            { net_id = net.Net.id; cells = !tree; length; routed = false })
    order;
  let nets = Array.map (fun net -> Hashtbl.find results net.Net.id) circuit.Circuit.nets in
  {
    nets;
    total_length = Array.fold_left (fun acc n -> acc +. n.length) 0.0 nets;
    overflow = overflow g;
    failed_nets = Array.fold_left (fun acc n -> if n.routed then acc else acc + 1) 0 nets;
  }
