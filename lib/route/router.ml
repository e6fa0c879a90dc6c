open Mps_netlist

let cell = 4
let capacity = 4

(* Extra BFS cost per crossing already in a cell, so later nets detour
   around congestion. *)
let congestion_penalty = 2

(* Extra cost for crossing a block interior (over-the-cell routing on
   upper metal): pins deep inside modules can escape, but open channels
   are strongly preferred. *)
let over_block_penalty = 8

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

(* Dijkstra-flavoured wave expansion from a set of sources to one
   target cell, cell cost 1 + congestion penalty.  Returns the path
   from a source to the target (inclusive), or None. *)
let wave grid ~sources ~target =
  let cols = Route_grid.cols grid and rows = Route_grid.rows grid in
  let dist = Array.make_matrix rows cols max_int in
  let parent = Array.make_matrix rows cols None in
  (* simple bucket-less priority queue: a sorted module on (cost, cell) *)
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
  let cell_cost cell =
    1
    + (congestion_penalty * Route_grid.usage grid cell)
    + (if Route_grid.blocked grid cell then over_block_penalty else 0)
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
          (Route_grid.neighbors_all grid cell);
        loop ()
      end
  in
  match loop () with
  | None -> None
  | Some _ ->
    (* walk parents back to a source *)
    let rec back acc ((c, r) as cell) =
      match parent.(r).(c) with
      | None -> cell :: acc
      | Some prev -> back (cell :: acc) prev
    in
    Some (back [] target)

let route circuit ~die_w ~die_h rects =
  if Array.length rects <> Circuit.n_blocks circuit then
    invalid_arg "Router.route: one rectangle per block required";
  let grid = Route_grid.create ~die_w ~die_h ~cell ~capacity rects in
  let pin_cell pin =
    let x, y = Mps_cost.Wirelength.pin_position pin ~rects ~die_w ~die_h in
    let cell = Route_grid.cell_of_point grid ~x ~y in
    Route_grid.unblock grid cell;
    cell
  in
  (* nets with more pins first: they need the most freedom *)
  let order =
    List.sort
      (fun a b -> Int.compare (Net.degree b) (Net.degree a))
      (Array.to_list circuit.Circuit.nets)
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun net ->
      let pins = List.map pin_cell net.Net.pins in
      let pins = List.sort_uniq compare pins in
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
              match wave grid ~sources:!tree ~target:pin with
              | Some path ->
                List.iter
                  (fun cell -> if not (List.mem cell !tree) then tree := cell :: !tree)
                  path
              | None -> complete := false)
          rest;
        if !complete then begin
          List.iter (Route_grid.occupy grid) !tree;
          let length = float_of_int ((List.length !tree - 1) * cell) in
          Hashtbl.replace results net.Net.id
            { net_id = net.Net.id; cells = !tree; length; routed = true }
        end
        else begin
          (* unroutable through free cells: half-perimeter fallback *)
          let length = Mps_cost.Wirelength.net_hpwl net ~rects ~die_w ~die_h in
          Hashtbl.replace results net.Net.id
            { net_id = net.Net.id; cells = !tree; length; routed = false }
        end)
    order;
  let nets =
    Array.map
      (fun net -> Hashtbl.find results net.Net.id)
      circuit.Circuit.nets
  in
  {
    nets;
    total_length = Array.fold_left (fun acc n -> acc +. n.length) 0.0 nets;
    overflow = Route_grid.overflow grid;
    failed_nets =
      Array.fold_left (fun acc n -> if n.routed then acc else acc + 1) 0 nets;
  }

let routed_length t id =
  match Array.find_opt (fun n -> n.net_id = id) t.nets with
  | Some n -> n.length
  | None -> invalid_arg "Router.routed_length: unknown net"
