open Mps_netlist

let cell = 4

(* Wire crossings per cell before congestion. *)
let capacity = 4

(* Extra search cost per crossing already in a cell, so later nets
   detour around congestion. *)
let congestion_penalty = 2

(* Extra cost for crossing a block interior (over-the-cell routing on
   upper metal): pins deep inside modules can escape, but open channels
   are strongly preferred. *)
let over_block_penalty = 8

type routed_net = {
  net_id : int;
  cells : (int * int) list;
  length : float;
}

type t = {
  nets : routed_net array;
  total_length : float;
  overflow : int;
}

(* One route's state, by cell index.  [dist] and [parent] (-1 at a
   source) hold in the current wave where [seen] carries its [gen].
   The tree grows in [tree.(0 .. len - 1)], marked by the net's [stamp]
   in [in_tree].  The wave's queue is Dial's: cost d in the list at
   [head.(d mod ring)], linked through [next]/[prev]; the ring outgrows
   the dearest cell, so no relaxation lands in the bucket expanding. *)
type scratch = {
  grid : Route_grid.t;
  dist : int array;
  parent : int array;
  seen : int array;
  mutable gen : int;
  tree : int array;
  mutable len : int;
  in_tree : int array;
  mutable stamp : int;
  head : int array;
  next : int array;
  prev : int array;
}

(* Cell [i] reached at cost [d] from [from]: into bucket d. *)
let reach s i d ~from =
  s.seen.(i) <- s.gen;
  s.dist.(i) <- d;
  s.parent.(i) <- from;
  let b = d mod Array.length s.head in
  s.next.(i) <- s.head.(b);
  s.prev.(i) <- -1;
  if s.head.(b) >= 0 then s.prev.(s.head.(b)) <- i;
  s.head.(b) <- i

let remove s i =
  let p = s.prev.(i) and x = s.next.(i) in
  if p >= 0 then s.next.(p) <- x else s.head.(s.dist.(i) mod Array.length s.head) <- x;
  if x >= 0 then s.prev.(x) <- p

(* Routes are those of a queue popping (cost, column, row) in order: a
   cell's parent is, of its neighbours one cell cost below it (all in
   one bucket), the least index.  An equal-cost relaxation from a lower
   index takes the parent over, so a bucket's cells expand in any order. *)
let relax s ~from d j =
  let nd =
    d + 1
    + (congestion_penalty * Route_grid.usage s.grid j)
    + if Route_grid.blocked s.grid j then over_block_penalty else 0
  in
  if s.seen.(j) <> s.gen || nd < s.dist.(j) then begin
    if s.seen.(j) = s.gen then remove s j;
    reach s j nd ~from
  end
  else if nd = s.dist.(j) && from < s.parent.(j) then s.parent.(j) <- from

(* Expand a bucket's list: its cells are final. *)
let rec drain s i =
  if i >= 0 then begin
    let x = s.next.(i) and rows = Route_grid.rows s.grid in
    let d = s.dist.(i) and r = i mod rows in
    if i >= rows then relax s ~from:i d (i - rows);
    if i + rows < Array.length s.dist then relax s ~from:i d (i + rows);
    if r > 0 then relax s ~from:i d (i - 1);
    if r < rows - 1 then relax s ~from:i d (i + 1);
    drain s x
  end

(* Expand costs d, d + 1, ... up to the target's: every cell below it,
   and so the path, is then final. *)
let rec expand_from s ~target d =
  if not (s.seen.(target) = s.gen && s.dist.(target) = d) then begin
    let b = d mod Array.length s.head in
    drain s s.head.(b);
    s.head.(b) <- -1;
    expand_from s ~target (d + 1)
  end

(* Dijkstra from every tree cell to [target].  A blocked cell only costs
   more and the 4-neighbour grid is connected, so the target is always
   reached. *)
let wave s ~target =
  s.gen <- s.gen + 1;
  Array.fill s.head 0 (Array.length s.head) (-1);
  for k = 0 to s.len - 1 do
    reach s s.tree.(k) 0 ~from:(-1)
  done;
  expand_from s ~target 0

let graft s i =
  s.in_tree.(i) <- s.stamp;
  s.tree.(s.len) <- i;
  s.len <- s.len + 1

(* Graft the wave's path to [i], source side first. *)
let rec graft_path s i =
  if s.in_tree.(i) <> s.stamp then begin
    graft_path s s.parent.(i);
    graft s i
  end

let route circuit ~die_w ~die_h rects =
  if Array.length rects <> Circuit.n_blocks circuit then
    invalid_arg "Router.route: one rectangle per block required";
  let grid = Route_grid.create ~die_w ~die_h ~cell ~capacity rects in
  let nets = circuit.Circuit.nets in
  let rows = Route_grid.rows grid in
  let n = Route_grid.cols grid * rows in
  let cells () = Array.make n 0 in
  (* the dearest cell: 1 + over_block_penalty + congestion_penalty per
     net routed before *)
  let ring = 2 + over_block_penalty + (congestion_penalty * Array.length nets) in
  let s =
    { grid; dist = cells (); parent = cells (); seen = cells (); gen = 0; tree = cells ();
      len = 0; in_tree = cells (); stamp = 0; head = Array.make ring 0; next = cells ();
      prev = cells () }
  in
  let coords i = (i / rows, i mod rows) in
  let pin_cell pin =
    let x, y = Mps_cost.Wirelength.pin_position pin ~rects ~die_w ~die_h in
    let i = Route_grid.cell_of_point grid ~x ~y in
    Route_grid.unblock grid i;
    i
  in
  (* nets with more pins first: they need the most freedom *)
  let order =
    List.stable_sort
      (fun a b -> Int.compare (Net.degree nets.(b)) (Net.degree nets.(a)))
      (List.init (Array.length nets) Fun.id)
  in
  let routed = Array.make (Array.length nets) { net_id = 0; cells = []; length = 0.0 } in
  List.iter
    (fun k ->
      let net = nets.(k) in
      let pins = List.sort_uniq Int.compare (List.map pin_cell net.Net.pins) in
      routed.(k) <-
        (match pins with
        | [] | [ _ ] -> { net_id = net.Net.id; cells = List.map coords pins; length = 0.0 }
        | first :: rest ->
          s.stamp <- s.stamp + 1;
          s.len <- 0;
          graft s first;
          List.iter
            (fun pin ->
              if s.in_tree.(pin) <> s.stamp then begin
                wave s ~target:pin;
                graft_path s pin
              end)
            rest;
          let cells = ref [] in
          for k = 0 to s.len - 1 do
            Route_grid.occupy grid s.tree.(k);
            cells := coords s.tree.(k) :: !cells
          done;
          { net_id = net.Net.id; cells = !cells; length = float_of_int ((s.len - 1) * cell) }))
    order;
  {
    nets = routed;
    total_length = Array.fold_left (fun acc n -> acc +. n.length) 0.0 routed;
    overflow = Route_grid.overflow grid;
  }

let routed_length t id =
  match Array.find_opt (fun n -> n.net_id = id) t.nets with
  | Some n -> n.length
  | None -> invalid_arg "Router.routed_length: unknown net"

let cell_center (c, r) =
  ((float_of_int c +. 0.5) *. float_of_int cell, (float_of_int r +. 0.5) *. float_of_int cell)
