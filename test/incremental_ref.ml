(* The incremental cost engine as it stood before the undo log, the
   dirty-net batches and the two-pin HPWL shortcut: every cache repaired
   by the O(n) pair loop and every batch closed by a full [resync].  Kept
   as the reference the exactness tests compare the production engine
   against, bit for bit ([test_incremental.ml]).  Not used by the
   library. *)

open Mps_cost
open Mps_geometry
open Mps_netlist

(* The evaluator keeps the floorplan as four parallel int arrays (no
   Rect.t boxing on the hot path) plus one cached aggregate per cost
   term.  A single-block geometry change is repaired in O(n + deg)
   instead of the O(n^2 + nets) full evaluation:

   - overlap: [row.(i)] caches sum_j overlap(i, j).  Changing block i
     walks the other blocks once, updating each [row.(j)] by the pair
     delta and rebuilding [row.(i)]; the total moves by
     [new_row - old_row].
   - wirelength: [net_hpwl] caches each net's HPWL; only the nets
     incident to the changed block ([incident]) are re-measured.
   - out-of-bounds: [oob.(i)] caches each block's area outside the die.
   - bounding box: grown in O(1); a change that might shrink it (the old
     rect touched an edge) marks it dirty for a lazy O(n) rescan.
   - symmetry: O(groups) and touched by any member block, so it is
     simply recomputed lazily when dirty.

   Integer terms are exact under any apply/undo sequence; the float HPWL
   total accumulates one rounding per delta, so [commit] resyncs from
   scratch every [resync_every] committed operations to bound drift. *)

(* [Stdlib.min]/[max] are polymorphic (a generic-compare call each
   without flambda); the kernels below run millions of times, so they
   use int-specialized copies that compile to straight comparisons. *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

type t = {
  circuit : Circuit.t;
  die_w : int;
  die_h : int;
  n : int;
  x : int array;
  y : int array;
  w : int array;
  h : int array;
  incident : int array array;  (* block -> ids of incident nets *)
  (* pins compiled to net-concatenated parallel arrays (net [nid] owns
     slots [net_off.(nid), net_off.(nid+1))): for a block pin, [pin_blk]
     holds the block and [pin_fx]/[pin_fy] the fractional offsets; for a
     pad, [pin_blk] is -1 and [pin_fx]/[pin_fy] hold the absolute die
     coordinates.  Re-measuring a net then allocates nothing. *)
  pin_blk : int array;
  pin_fx : float array;
  pin_fy : float array;
  net_off : int array;
  net_hpwl : float array;
  mutable hpwl : float;
  row : int array;  (* row.(i) = sum_j<>i overlap_area (i, j) *)
  mutable overlap : int;
  oob : int array;
  mutable oob_total : int;
  mutable bb_min_x : int;
  mutable bb_min_y : int;
  mutable bb_max_x : int;  (* right edge *)
  mutable bb_max_y : int;  (* top edge *)
  mutable bb_dirty : bool;
  mutable sym : float;
  mutable sym_dirty : bool;
  (* LIFO log of pre-change geometries for the uncommitted operations *)
  mutable u_blk : int array;
  mutable u_x : int array;
  mutable u_y : int array;
  mutable u_w : int array;
  mutable u_h : int array;
  mutable u_len : int;
  mutable committed : int;  (* committed entries since the last resync *)
  resync_every : int;
  mutable overlap_free : bool;
      (* set by [reset ~overlap_free:true]: the caller guarantees every
         floorplan until the next [reset] is overlap-free, so the
         overlap term is exactly 0 and neither [resync] nor [set_geom]
         walks the block pairs ([row] stays all zero) *)
  mutable batching : bool;
      (* inside [begin_batch]/[end_batch]: geometry writes are staged
         without repair; [end_batch] rebuilds every cache in one pass *)
}

let n_blocks t = t.n
let die t = (t.die_w, t.die_h)
let block_x t i = t.x.(i)
let block_y t i = t.y.(i)
let block_w t i = t.w.(i)
let block_h t i = t.h.(i)
let pending t = t.u_len

let rects t =
  Array.init t.n (fun i -> Rect.make ~x:t.x.(i) ~y:t.y.(i) ~w:t.w.(i) ~h:t.h.(i))

(* --- per-term primitives (these mirror Cost/Wirelength exactly) --- *)

let oob_of t i =
  let dx = imin (t.x.(i) + t.w.(i)) t.die_w - imax t.x.(i) 0 in
  let dy = imin (t.y.(i) + t.h.(i)) t.die_h - imax t.y.(i) 0 in
  let inside = if dx > 0 && dy > 0 then dx * dy else 0 in
  (t.w.(i) * t.h.(i)) - inside

(* Exactly [Wirelength.net_hpwl] over the compiled pin arrays: same pin
   order, same arithmetic (pad positions were pre-multiplied by the die
   at [create], the block-pin expression is term-for-term identical), so
   resynced totals match [Cost.evaluate] bit for bit.  No closures, no
   tuples: the min/max refs stay unboxed and a pin costs four loads.
   The result goes straight into [net_hpwl.(nid)]: returning it would
   box one float per call. *)
let store_net_hpwl t nid =
  let lo = t.net_off.(nid) and hi = t.net_off.(nid + 1) in
  if hi - lo < 2 then t.net_hpwl.(nid) <- 0.0
  else begin
    let min_x = ref infinity and max_x = ref neg_infinity in
    let min_y = ref infinity and max_y = ref neg_infinity in
    for k = lo to hi - 1 do
      let b = Array.unsafe_get t.pin_blk k in
      let px =
        if b >= 0 then
          float_of_int (Array.unsafe_get t.x b)
          +. (Array.unsafe_get t.pin_fx k *. float_of_int (Array.unsafe_get t.w b))
        else Array.unsafe_get t.pin_fx k
      in
      let py =
        if b >= 0 then
          float_of_int (Array.unsafe_get t.y b)
          +. (Array.unsafe_get t.pin_fy k *. float_of_int (Array.unsafe_get t.h b))
        else Array.unsafe_get t.pin_fy k
      in
      if px < !min_x then min_x := px;
      if px > !max_x then max_x := px;
      if py < !min_y then min_y := py;
      if py > !max_y then max_y := py
    done;
    t.net_hpwl.(nid) <- !max_x -. !min_x +. (!max_y -. !min_y)
  end

let recompute_bb t =
  if t.n > 0 then begin
    t.bb_min_x <- t.x.(0);
    t.bb_min_y <- t.y.(0);
    t.bb_max_x <- t.x.(0) + t.w.(0);
    t.bb_max_y <- t.y.(0) + t.h.(0);
    for i = 1 to t.n - 1 do
      if t.x.(i) < t.bb_min_x then t.bb_min_x <- t.x.(i);
      if t.y.(i) < t.bb_min_y then t.bb_min_y <- t.y.(i);
      if t.x.(i) + t.w.(i) > t.bb_max_x then t.bb_max_x <- t.x.(i) + t.w.(i);
      if t.y.(i) + t.h.(i) > t.bb_max_y then t.bb_max_y <- t.y.(i) + t.h.(i)
    done
  end;
  t.bb_dirty <- false

let bbox_area t =
  if t.n = 0 then 0
  else begin
    if t.bb_dirty then recompute_bb t;
    (t.bb_max_x - t.bb_min_x) * (t.bb_max_y - t.bb_min_y)
  end

let recompute_sym t =
  (t.sym <-
     (match t.circuit.Circuit.symmetry with
     | [] -> 0.0
     | groups ->
       let center i = float_of_int t.x.(i) +. (float_of_int t.w.(i) /. 2.0) in
       let group_axis = function
         | Symmetry.Pair { left; right } -> (center left +. center right) /. 2.0
         | Symmetry.Self i -> center i
       in
       let axes = List.map group_axis groups in
       let axis = List.fold_left ( +. ) 0.0 axes /. float_of_int (List.length axes) in
       let group_error = function
         | Symmetry.Pair { left; right } ->
           let mirror = abs_float (center left +. center right -. (2.0 *. axis)) in
           let vertical = abs_float (float_of_int (t.y.(left) - t.y.(right))) in
           mirror +. vertical
         | Symmetry.Self i -> abs_float (center i -. axis)
       in
       List.fold_left (fun acc g -> acc +. group_error g) 0.0 groups));
  t.sym_dirty <- false

let symmetry t =
  if t.sym_dirty then recompute_sym t;
  t.sym

(* [resync] is itself a hot path: it backs [end_batch] and the
   rebuild-flavoured [undo], which the BDIO hits twice per rejected
   move.  The pair loop hoists block [i]'s geometry out of the inner
   loop and accumulates its row in a register; in overlap-free mode it
   is skipped outright. *)
let resync t =
  let n = t.n in
  let x = t.x and y = t.y and w = t.w and h = t.h and row = t.row in
  Array.fill row 0 n 0;
  let overlap = ref 0 in
  if not t.overlap_free then
    for i = 0 to n - 1 do
      let xi = Array.unsafe_get x i and yi = Array.unsafe_get y i in
      let xi2 = xi + Array.unsafe_get w i and yi2 = yi + Array.unsafe_get h i in
      let ri = ref (Array.unsafe_get row i) in
      for j = i + 1 to n - 1 do
        let xj = Array.unsafe_get x j in
        let dx = imin xi2 (xj + Array.unsafe_get w j) - imax xi xj in
        if dx > 0 then begin
          let yj = Array.unsafe_get y j in
          let dy = imin yi2 (yj + Array.unsafe_get h j) - imax yi yj in
          if dy > 0 then begin
            let ov = dx * dy in
            ri := !ri + ov;
            Array.unsafe_set row j (Array.unsafe_get row j + ov);
            overlap := !overlap + ov
          end
        end
      done;
      Array.unsafe_set row i !ri
    done;
  t.overlap <- !overlap;
  let oob_total = ref 0 in
  for i = 0 to n - 1 do
    let v = oob_of t i in
    t.oob.(i) <- v;
    oob_total := !oob_total + v
  done;
  t.oob_total <- !oob_total;
  let hpwl = ref 0.0 in
  for nid = 0 to Array.length t.net_hpwl - 1 do
    store_net_hpwl t nid;
    hpwl := !hpwl +. Array.unsafe_get t.net_hpwl nid
  done;
  t.hpwl <- !hpwl;
  recompute_bb t;
  recompute_sym t;
  t.committed <- 0

(* [reset] makes an engine reusable across candidates: [create] pays
   O(n + pins) allocation for the compiled pin/incidence arrays, which
   depend only on (circuit, die) — not on the floorplan — so
   an arena can rebind the same engine to a new rect set allocating
   only the one boxed float the [hpwl] field holds.  [resync] rebuilds
   every cache from scratch, so the resulting state is bit-identical to
   a fresh [create] on the same inputs (property-tested).
   [~overlap_free:true] additionally switches off the pair loop until
   the next [reset]; see the .mli for the caller's side of that
   bargain. *)
let reset ?(overlap_free = false) t rects =
  if Array.length rects <> t.n then
    invalid_arg "Incremental.reset: one rectangle per block required";
  for i = 0 to t.n - 1 do
    let r = Array.unsafe_get rects i in
    t.x.(i) <- r.Rect.x;
    t.y.(i) <- r.Rect.y;
    t.w.(i) <- r.Rect.w;
    t.h.(i) <- r.Rect.h
  done;
  t.u_len <- 0;
  t.batching <- false;
  t.overlap_free <- overlap_free;
  resync t

let create ?(resync_every = 1024) circuit ~die_w ~die_h rects =
  let n = Circuit.n_blocks circuit in
  if Array.length rects <> n then
    invalid_arg "Incremental.create: one rectangle per block required";
  if resync_every < 1 then invalid_arg "Incremental.create: resync_every must be >= 1";
  let nets = circuit.Circuit.nets in
  let incident =
    let lists = Array.make n [] in
    Array.iteri
      (fun nid net ->
        List.iter (fun b -> lists.(b) <- nid :: lists.(b)) (Net.blocks net))
      nets;
    Array.map (fun l -> Array.of_list (List.rev l)) lists
  in
  let total_pins =
    Array.fold_left (fun acc net -> acc + List.length net.Net.pins) 0 nets
  in
  let net_off = Array.make (Array.length nets + 1) 0 in
  let pin_blk = Array.make (max 1 total_pins) (-1) in
  let pin_fx = Array.make (max 1 total_pins) 0.0 in
  let pin_fy = Array.make (max 1 total_pins) 0.0 in
  let slot = ref 0 in
  Array.iteri
    (fun nid net ->
      net_off.(nid) <- !slot;
      List.iter
        (fun pin ->
          (match pin with
          | Net.Block_pin { block; fx; fy } ->
            pin_blk.(!slot) <- block;
            pin_fx.(!slot) <- fx;
            pin_fy.(!slot) <- fy
          | Net.Pad { px; py } ->
            pin_blk.(!slot) <- -1;
            pin_fx.(!slot) <- px *. float_of_int die_w;
            pin_fy.(!slot) <- py *. float_of_int die_h);
          incr slot)
        net.Net.pins)
    nets;
  net_off.(Array.length nets) <- !slot;
  let cap = max 8 ((2 * n) + 4) in
  let t =
    {
      circuit;
      die_w;
      die_h;
      n;
      x = Array.map (fun r -> r.Rect.x) rects;
      y = Array.map (fun r -> r.Rect.y) rects;
      w = Array.map (fun r -> r.Rect.w) rects;
      h = Array.map (fun r -> r.Rect.h) rects;
      incident;
      pin_blk;
      pin_fx;
      pin_fy;
      net_off;
      net_hpwl = Array.make (Circuit.n_nets circuit) 0.0;
      hpwl = 0.0;
      row = Array.make n 0;
      overlap = 0;
      oob = Array.make n 0;
      oob_total = 0;
      bb_min_x = 0;
      bb_min_y = 0;
      bb_max_x = 0;
      bb_max_y = 0;
      bb_dirty = true;
      sym = 0.0;
      sym_dirty = true;
      u_blk = Array.make cap 0;
      u_x = Array.make cap 0;
      u_y = Array.make cap 0;
      u_w = Array.make cap 0;
      u_h = Array.make cap 0;
      u_len = 0;
      committed = 0;
      resync_every;
      overlap_free = false;
      batching = false;
    }
  in
  resync t;
  t

(* --- the delta kernel --- *)

let push_undo t i =
  let cap = Array.length t.u_blk in
  if t.u_len = cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    t.u_blk <- grow t.u_blk;
    t.u_x <- grow t.u_x;
    t.u_y <- grow t.u_y;
    t.u_w <- grow t.u_w;
    t.u_h <- grow t.u_h
  end;
  t.u_blk.(t.u_len) <- i;
  t.u_x.(t.u_len) <- t.x.(i);
  t.u_y.(t.u_len) <- t.y.(i);
  t.u_w.(t.u_len) <- t.w.(i);
  t.u_h.(t.u_len) <- t.h.(i);
  t.u_len <- t.u_len + 1

(* One block's geometry change, repaired in O(n + incident pins).  The
   pair loop hoists block [i]'s old and new bounds, reads each [j]'s
   geometry once with unchecked loads, and skips [j] as soon as neither
   the old nor the new rect meets it along x — the usual case — as
   [resync] does.  Integer arithmetic throughout, so the rows are exact
   whatever the loop skips. *)
let set_geom t i ~x:nx ~y:ny ~w:nw ~h:nh =
  let ox = t.x.(i) and oy = t.y.(i) and ow = t.w.(i) and oh = t.h.(i) in
  if ox <> nx || oy <> ny || ow <> nw || oh <> nh then begin
    t.x.(i) <- nx;
    t.y.(i) <- ny;
    t.w.(i) <- nw;
    t.h.(i) <- nh;
    (* staged in a batch: [end_batch] rebuilds every cache in one pass *)
    if not t.batching then begin
      (* overlap rows *)
      if not t.overlap_free then begin
        let x = t.x and y = t.y and w = t.w and h = t.h and row = t.row in
        let ox2 = ox + ow and oy2 = oy + oh and nx2 = nx + nw and ny2 = ny + nh in
        let new_row = ref 0 in
        for j = 0 to t.n - 1 do
          let xj = Array.unsafe_get x j in
          let xj2 = xj + Array.unsafe_get w j in
          let dx_old = imin ox2 xj2 - imax ox xj and dx_new = imin nx2 xj2 - imax nx xj in
          if (dx_old > 0 || dx_new > 0) && j <> i then begin
            let yj = Array.unsafe_get y j in
            let yj2 = yj + Array.unsafe_get h j in
            let dy_old = imin oy2 yj2 - imax oy yj and dy_new = imin ny2 yj2 - imax ny yj in
            let ov_old = if dx_old > 0 && dy_old > 0 then dx_old * dy_old else 0 in
            let ov_new = if dx_new > 0 && dy_new > 0 then dx_new * dy_new else 0 in
            if ov_old <> ov_new then
              Array.unsafe_set row j (Array.unsafe_get row j + ov_new - ov_old);
            new_row := !new_row + ov_new
          end
        done;
        t.overlap <- t.overlap + !new_row - row.(i);
        row.(i) <- !new_row
      end;
      (* out-of-bounds *)
      let nb = oob_of t i in
      t.oob_total <- t.oob_total + nb - t.oob.(i);
      t.oob.(i) <- nb;
      (* incident nets *)
      let inc = t.incident.(i) in
      let hpwl = ref t.hpwl in
      for p = 0 to Array.length inc - 1 do
        let nid = Array.unsafe_get inc p in
        let before = Array.unsafe_get t.net_hpwl nid in
        store_net_hpwl t nid;
        hpwl := !hpwl +. Array.unsafe_get t.net_hpwl nid -. before
      done;
      t.hpwl <- !hpwl;
      (* bounding box: grow is O(1); a potential shrink (the old rect sat
         on an edge of the box) defers to a lazy rescan *)
      if not t.bb_dirty then begin
        if
          ox = t.bb_min_x || oy = t.bb_min_y
          || ox + ow = t.bb_max_x || oy + oh = t.bb_max_y
        then t.bb_dirty <- true
        else begin
          if nx < t.bb_min_x then t.bb_min_x <- nx;
          if ny < t.bb_min_y then t.bb_min_y <- ny;
          if nx + nw > t.bb_max_x then t.bb_max_x <- nx + nw;
          if ny + nh > t.bb_max_y then t.bb_max_y <- ny + nh
        end
      end;
      if t.circuit.Circuit.symmetry <> [] then t.sym_dirty <- true
    end
  end

let check_block t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Incremental.%s: block %d out of [0, %d)" name i t.n)

let move_block t i ~x ~y =
  check_block t i "move_block";
  push_undo t i;
  set_geom t i ~x ~y ~w:t.w.(i) ~h:t.h.(i)

let resize_block t i ~w ~h =
  check_block t i "resize_block";
  if w <= 0 || h <= 0 then
    invalid_arg (Printf.sprintf "Incremental.resize_block: non-positive size %dx%d" w h);
  push_undo t i;
  set_geom t i ~x:t.x.(i) ~y:t.y.(i) ~w ~h

let clamp_x t i v = imax 0 (imin v (t.die_w - t.w.(i)))
let clamp_y t i v = imax 0 (imin v (t.die_h - t.h.(i)))

let swap_blocks t i j =
  check_block t i "swap_blocks";
  check_block t j "swap_blocks";
  if i <> j then begin
    let oxi = t.x.(i) and oyi = t.y.(i) in
    let nxi = clamp_x t i t.x.(j) and nyi = clamp_y t i t.y.(j) in
    let nxj = clamp_x t j oxi and nyj = clamp_y t j oyi in
    push_undo t i;
    set_geom t i ~x:nxi ~y:nyi ~w:t.w.(i) ~h:t.h.(i);
    push_undo t j;
    set_geom t j ~x:nxj ~y:nyj ~w:t.w.(j) ~h:t.h.(j)
  end

let begin_batch t =
  if t.batching then invalid_arg "Incremental.begin_batch: batch already open";
  t.batching <- true

let end_batch t =
  if not t.batching then invalid_arg "Incremental.end_batch: no batch open";
  t.batching <- false;
  resync t

let undo t =
  if t.batching then invalid_arg "Incremental.undo: close the open batch first";
  if 4 * t.u_len > t.n then begin
    (* Reverting a large staged group: raw geometry restore plus one
       from-scratch rebuild beats per-entry O(n) repair. *)
    while t.u_len > 0 do
      t.u_len <- t.u_len - 1;
      let k = t.u_len in
      let i = t.u_blk.(k) in
      t.x.(i) <- t.u_x.(k);
      t.y.(i) <- t.u_y.(k);
      t.w.(i) <- t.u_w.(k);
      t.h.(i) <- t.u_h.(k)
    done;
    resync t
  end
  else
    while t.u_len > 0 do
      t.u_len <- t.u_len - 1;
      let k = t.u_len in
      set_geom t t.u_blk.(k) ~x:t.u_x.(k) ~y:t.u_y.(k) ~w:t.u_w.(k) ~h:t.u_h.(k)
    done

let commit t =
  if t.batching then invalid_arg "Incremental.commit: close the open batch first";
  t.committed <- t.committed + t.u_len;
  t.u_len <- 0;
  if t.committed >= t.resync_every then resync t

let total t =
  let w = Cost.weights in
  w.Cost.wirelength *. t.hpwl
  +. (w.Cost.area *. float_of_int (bbox_area t))
  +. (w.Cost.overlap *. float_of_int t.overlap)
  +. (w.Cost.out_of_bounds *. float_of_int t.oob_total)
  +. (w.Cost.symmetry *. symmetry t)

let breakdown t =
  {
    Cost.hpwl = t.hpwl;
    bbox_area = bbox_area t;
    overlap_area = t.overlap;
    oob_area = t.oob_total;
    symmetry_misalign = symmetry t;
    total = total t;
  }
