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
   scratch every [resync_every] committed operations to bound drift.

   Undo and batches pay only for what changed (DESIGN.md §6):
   - a repaired change logs every cache value it overwrites (overlap
     rows, the overlap total, the block's out-of-bounds term, its
     incident nets' HPWL), so [undo] restores them instead of repairing
     again, replaying the HPWL total's float deltas in the original
     order;
   - a batch (and a large [undo]) in overlap-free mode rebuilds only the
     out-of-bounds terms and nets of the blocks it changed, then re-sums
     the HPWL total in net order, which is what [resync] computes. *)

(* [Stdlib.min]/[max] are polymorphic (a generic-compare call each
   without flambda); the kernels below run millions of times, so they
   use int-specialized copies that compile to straight comparisons. *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

(* Branch-free forms for the pair loops, whose tests depend on where
   every other block sits and so mispredict often: [pos d] is
   [imax d 0], and [bmin]/[bmax] select through the sign mask of the
   difference ([d asr 62] is -1 for negative [d], else 0; coordinates
   are far from overflow). *)
let[@inline] pos d = d land lnot (d asr 62)
let[@inline] bmin a b = let d = a - b in b + (d land (d asr 62))
let[@inline] bmax a b = let d = a - b in a - (d land (d asr 62))

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
  hpwl : float array;
      (* one cell: the wirelength total, stored flat so that updating it
         allocates nothing (a mutable float field boxes on every write) *)
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
  (* LIFO log of the uncommitted operations, [u_stride] words each (see
     [stage]); a repaired entry's snapshot of every row sits in [rlog]
     (outside overlap-free mode) and its incident nets' old HPWL in
     [hlog] *)
  mutable ulog : int array;
  mutable u_len : int;
  mutable rlog : int array;
  mutable r_len : int;
  mutable hlog : float array;
  mutable h_len : int;
  (* blocks written raw (in a batch or a large [undo]) since the last
     rebuild: the first [n_dirty] slots of [dirty], each marked in
     [blk_dirty] so it is listed once *)
  dirty : int array;
  mutable n_dirty : int;
  blk_dirty : Bytes.t;
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

(* Pin [k]'s position: a block pin's fractional offset scaled by the
   block's size, or a pad's absolute coordinate. *)
let[@inline] pin_x t k =
  let b = Array.unsafe_get t.pin_blk k in
  if b >= 0 then
    float_of_int (Array.unsafe_get t.x b)
    +. (Array.unsafe_get t.pin_fx k *. float_of_int (Array.unsafe_get t.w b))
  else Array.unsafe_get t.pin_fx k

let[@inline] pin_y t k =
  let b = Array.unsafe_get t.pin_blk k in
  if b >= 0 then
    float_of_int (Array.unsafe_get t.y b)
    +. (Array.unsafe_get t.pin_fy k *. float_of_int (Array.unsafe_get t.h b))
  else Array.unsafe_get t.pin_fy k

(* Exactly [Wirelength.net_hpwl] over the compiled pin arrays: same pin
   order, same arithmetic (pad positions were pre-multiplied by the die
   at [create], the block-pin expression is term-for-term identical), so
   resynced totals match [Cost.evaluate] bit for bit.  No closures, no
   tuples: the min/max refs stay unboxed and a pin costs four loads.
   The result goes straight into [net_hpwl.(nid)]: returning it would
   box one float per call.  A two-pin net skips the min/max scan:
   [Float.abs (a -. b)] is exactly max - min, since IEEE subtraction
   rounds [a -. b] and [b -. a] to values of equal magnitude (0.0 on a
   tie). *)
let store_net_hpwl t nid =
  let lo = t.net_off.(nid) and hi = t.net_off.(nid + 1) in
  if hi - lo < 2 then t.net_hpwl.(nid) <- 0.0
  else if hi - lo = 2 then
    t.net_hpwl.(nid) <-
      Float.abs (pin_x t lo -. pin_x t (lo + 1)) +. Float.abs (pin_y t lo -. pin_y t (lo + 1))
  else begin
    let min_x = ref infinity and max_x = ref neg_infinity in
    let min_y = ref infinity and max_y = ref neg_infinity in
    for k = lo to hi - 1 do
      let px = pin_x t k and py = pin_y t k in
      if px < !min_x then min_x := px;
      if px > !max_x then max_x := px;
      if py < !min_y then min_y := py;
      if py > !max_y then max_y := py
    done;
    t.net_hpwl.(nid) <- !max_x -. !min_x +. (!max_y -. !min_y)
  end

(* Four independent branch-free min/max chains in registers: the
   running extremes change at data-dependent steps, which a branch
   would mispredict. *)
let recompute_bb t =
  if t.n > 0 then begin
    let x = t.x and y = t.y and w = t.w and h = t.h in
    let min_x = ref x.(0) and min_y = ref y.(0) in
    let max_x = ref (x.(0) + w.(0)) and max_y = ref (y.(0) + h.(0)) in
    for i = 1 to t.n - 1 do
      let xi = Array.unsafe_get x i and yi = Array.unsafe_get y i in
      min_x := bmin !min_x xi;
      min_y := bmin !min_y yi;
      max_x := bmax !max_x (xi + Array.unsafe_get w i);
      max_y := bmax !max_y (yi + Array.unsafe_get h i)
    done;
    t.bb_min_x <- !min_x;
    t.bb_min_y <- !min_y;
    t.bb_max_x <- !max_x;
    t.bb_max_y <- !max_y
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

(* [resync] is the from-scratch reference: [create], [reset], the
   periodic anti-drift pass and every batch outside overlap-free mode
   rebuild through it.  The pair loop hoists block [i]'s geometry out
   of the inner loop and accumulates its row in a register; in
   overlap-free mode it is skipped outright. *)
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
        let xj = Array.unsafe_get x j and yj = Array.unsafe_get y j in
        let ov =
          pos (bmin xi2 (xj + Array.unsafe_get w j) - bmax xi xj)
          * pos (bmin yi2 (yj + Array.unsafe_get h j) - bmax yi yj)
        in
        ri := !ri + ov;
        Array.unsafe_set row j (Array.unsafe_get row j + ov);
        overlap := !overlap + ov
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
  t.hpwl.(0) <- !hpwl;
  for k = 0 to t.n_dirty - 1 do
    Bytes.unsafe_set t.blk_dirty t.dirty.(k) '\000'
  done;
  t.n_dirty <- 0;
  recompute_bb t;
  recompute_sym t;
  t.committed <- 0

let mark_dirty t i =
  if Bytes.unsafe_get t.blk_dirty i = '\000' then begin
    Bytes.unsafe_set t.blk_dirty i '\001';
    t.dirty.(t.n_dirty) <- i;
    t.n_dirty <- t.n_dirty + 1
  end

(* [resync] for overlap-free mode after raw geometry writes (a batch,
   or a large [undo]): every cache entry of an unlisted block is
   already exact, so only the listed blocks' out-of-bounds terms and
   the nets they touch are recomputed (a net shared by two listed
   blocks twice, to the same value), and the HPWL total is re-summed
   over the per-net cache in net order, the very sum [resync] forms.
   The bounding box and the symmetry term are functions of the
   geometry alone, so rebuilding them lazily yields what [resync]'s
   eager rebuild would.  Like [resync], this restarts the anti-drift
   count. *)
let rebuild_dirty t =
  for k = 0 to t.n_dirty - 1 do
    let i = t.dirty.(k) in
    Bytes.unsafe_set t.blk_dirty i '\000';
    let v = oob_of t i in
    t.oob_total <- t.oob_total + v - t.oob.(i);
    t.oob.(i) <- v;
    let nets = t.incident.(i) in
    for p = 0 to Array.length nets - 1 do
      store_net_hpwl t (Array.unsafe_get nets p)
    done
  done;
  t.n_dirty <- 0;
  let hpwl = ref 0.0 in
  for nid = 0 to Array.length t.net_hpwl - 1 do
    hpwl := !hpwl +. Array.unsafe_get t.net_hpwl nid
  done;
  t.hpwl.(0) <- !hpwl;
  t.bb_dirty <- true;
  if t.circuit.Circuit.symmetry <> [] then t.sym_dirty <- true;
  t.committed <- 0

(* [reset] makes an engine reusable across candidates: [create] pays
   O(n + pins) allocation for the compiled pin/incidence arrays, which
   depend only on (circuit, die) — not on the floorplan — so
   an arena can rebind the same engine to a new rect set without
   allocating.  [resync] rebuilds every cache from scratch, so the
   resulting state is bit-identical to a fresh [create] on the same
   inputs (property-tested).  [~overlap_free:true] additionally
   switches off the pair loop until the next [reset]; see the .mli for
   the caller's side of that bargain. *)
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
  t.r_len <- 0;
  t.h_len <- 0;
  t.batching <- false;
  t.overlap_free <- overlap_free;
  resync t

(* One undo-log entry: the block, its geometry before the change, how
   the change was applied ([mode_*]), and for a repaired change the
   overlap total, the block's out-of-bounds term and the [rlog] length
   before it. *)
let u_stride = 9
let mode_same = 0  (* geometry unchanged: undo has nothing to do *)
let mode_logged = 1  (* repaired in place; its overwritten caches are logged *)
let mode_raw = 2  (* written raw inside a batch *)

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
  (* sized for a swap's two entries with every row and net logged;
     a longer uncommitted group grows the logs by doubling *)
  let cap = max 8 ((2 * n) + 4) in
  let max_deg = Array.fold_left (fun m a -> max m (Array.length a)) 1 incident in
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
      hpwl = [| 0.0 |];
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
      ulog = Array.make (cap * u_stride) 0;
      u_len = 0;
      rlog = Array.make (4 * (n + 1)) 0;
      r_len = 0;
      hlog = Array.make (2 * max_deg) 0.0;
      h_len = 0;
      dirty = Array.make n 0;
      n_dirty = 0;
      blk_dirty = Bytes.make n '\000';
      committed = 0;
      resync_every;
      overlap_free = false;
      batching = false;
    }
  in
  resync t;
  t

(* --- the delta kernel --- *)

let[@inline never] grow_ints a need = Array.append a (Array.make (max need (Array.length a)) 0)

let[@inline never] grow_floats a need =
  Array.append a (Array.make (max need (Array.length a)) 0.0)

(* The bounding-box rule of a block change from (ox, oy, ow, oh) to
   (nx, ny, nw, nh): growing is O(1); a potential shrink (the old rect
   sat on an edge of the box) defers to a lazy rescan. *)
let[@inline] bb_update t ~ox ~oy ~ow ~oh ~nx ~ny ~nw ~nh =
  if not t.bb_dirty then begin
    if ox = t.bb_min_x || oy = t.bb_min_y || ox + ow = t.bb_max_x || oy + oh = t.bb_max_y
    then t.bb_dirty <- true
    else begin
      if nx < t.bb_min_x then t.bb_min_x <- nx;
      if ny < t.bb_min_y then t.bb_min_y <- ny;
      if nx + nw > t.bb_max_x then t.bb_max_x <- nx + nw;
      if ny + nh > t.bb_max_y then t.bb_max_y <- ny + nh
    end
  end

(* Repair every cache after block [i]'s geometry (already written) moved
   from (ox, oy, ow, oh), in O(n + incident pins).  The pair loop
   hoists block [i]'s old and new bounds, reads each [j]'s geometry
   once with unchecked loads, and skips [j] as soon as neither the old
   nor the new rect meets it along x — the usual case — as [resync]
   does.  Integer arithmetic throughout, so the rows are exact whatever
   the loop skips.  With [~log:true] every overwritten row and net
   value is appended to [rlog]/[hlog] for [undo]. *)
let repair t i ~ox ~oy ~ow ~oh ~log =
  let nx = t.x.(i) and ny = t.y.(i) and nw = t.w.(i) and nh = t.h.(i) in
  (* overlap rows; a logging repair first snapshots the whole row
     array (one store per block, no test on which rows change) *)
  if not t.overlap_free then begin
    if log && t.r_len + t.n > Array.length t.rlog then t.rlog <- grow_ints t.rlog t.n;
    let x = t.x and y = t.y and w = t.w and h = t.h and row = t.row and rlog = t.rlog in
    let r0 = t.r_len in
    let ox2 = ox + ow and oy2 = oy + oh and nx2 = nx + nw and ny2 = ny + nh in
    let new_row = ref 0 in
    for j = 0 to t.n - 1 do
      if j <> i then begin
        let xj = Array.unsafe_get x j and yj = Array.unsafe_get y j in
        let xj2 = xj + Array.unsafe_get w j and yj2 = yj + Array.unsafe_get h j in
        let ov_old = pos (bmin ox2 xj2 - bmax ox xj) * pos (bmin oy2 yj2 - bmax oy yj) in
        let ov_new = pos (bmin nx2 xj2 - bmax nx xj) * pos (bmin ny2 yj2 - bmax ny yj) in
        let rj = Array.unsafe_get row j in
        if log then Array.unsafe_set rlog (r0 + j) rj;
        Array.unsafe_set row j (rj + ov_new - ov_old);
        new_row := !new_row + ov_new
      end
    done;
    if log then begin
      Array.unsafe_set rlog (r0 + i) row.(i);
      t.r_len <- r0 + t.n
    end;
    t.overlap <- t.overlap + !new_row - row.(i);
    row.(i) <- !new_row
  end;
  (* out-of-bounds *)
  let nb = oob_of t i in
  t.oob_total <- t.oob_total + nb - t.oob.(i);
  t.oob.(i) <- nb;
  (* incident nets *)
  let inc = t.incident.(i) in
  let deg = Array.length inc in
  if log && t.h_len + deg > Array.length t.hlog then t.hlog <- grow_floats t.hlog deg;
  let hpwl = ref t.hpwl.(0) in
  for p = 0 to deg - 1 do
    let nid = Array.unsafe_get inc p in
    let before = Array.unsafe_get t.net_hpwl nid in
    if log then Array.unsafe_set t.hlog (t.h_len + p) before;
    store_net_hpwl t nid;
    hpwl := !hpwl +. Array.unsafe_get t.net_hpwl nid -. before
  done;
  if log then t.h_len <- t.h_len + deg;
  t.hpwl.(0) <- !hpwl;
  bb_update t ~ox ~oy ~ow ~oh ~nx ~ny ~nw ~nh;
  if t.circuit.Circuit.symmetry <> [] then t.sym_dirty <- true

(* Stage one block's geometry change as an undo-log entry.  Inside a
   batch the write is raw and the block is marked for the rebuild;
   otherwise every cache is repaired now and what the repair overwrote
   is logged. *)
let stage t i ~x:nx ~y:ny ~w:nw ~h:nh =
  if (t.u_len + 1) * u_stride > Array.length t.ulog then t.ulog <- grow_ints t.ulog u_stride;
  let u = t.ulog and base = t.u_len * u_stride in
  let ox = t.x.(i) and oy = t.y.(i) and ow = t.w.(i) and oh = t.h.(i) in
  u.(base) <- i;
  u.(base + 1) <- ox;
  u.(base + 2) <- oy;
  u.(base + 3) <- ow;
  u.(base + 4) <- oh;
  t.u_len <- t.u_len + 1;
  if ox = nx && oy = ny && ow = nw && oh = nh then u.(base + 5) <- mode_same
  else begin
    t.x.(i) <- nx;
    t.y.(i) <- ny;
    t.w.(i) <- nw;
    t.h.(i) <- nh;
    if t.batching then begin
      u.(base + 5) <- mode_raw;
      mark_dirty t i
    end
    else begin
      u.(base + 5) <- mode_logged;
      u.(base + 6) <- t.overlap;
      u.(base + 7) <- t.oob.(i);
      u.(base + 8) <- t.r_len;
      repair t i ~ox ~oy ~ow ~oh ~log:true
    end
  end

let check_block t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Incremental.%s: block %d out of [0, %d)" name i t.n)

let move_block t i ~x ~y =
  check_block t i "move_block";
  stage t i ~x ~y ~w:t.w.(i) ~h:t.h.(i)

let resize_block t i ~w ~h =
  check_block t i "resize_block";
  if w <= 0 || h <= 0 then
    invalid_arg (Printf.sprintf "Incremental.resize_block: non-positive size %dx%d" w h);
  stage t i ~x:t.x.(i) ~y:t.y.(i) ~w ~h

let clamp_x t i v = imax 0 (imin v (t.die_w - t.w.(i)))
let clamp_y t i v = imax 0 (imin v (t.die_h - t.h.(i)))

let swap_blocks t i j =
  check_block t i "swap_blocks";
  check_block t j "swap_blocks";
  if i <> j then begin
    let oxi = t.x.(i) and oyi = t.y.(i) in
    let nxi = clamp_x t i t.x.(j) and nyi = clamp_y t i t.y.(j) in
    let nxj = clamp_x t j oxi and nyj = clamp_y t j oyi in
    stage t i ~x:nxi ~y:nyi ~w:t.w.(i) ~h:t.h.(i);
    stage t j ~x:nxj ~y:nyj ~w:t.w.(j) ~h:t.h.(j)
  end

let begin_batch t =
  if t.batching then invalid_arg "Incremental.begin_batch: batch already open";
  t.batching <- true

let end_batch t =
  if not t.batching then invalid_arg "Incremental.end_batch: no batch open";
  t.batching <- false;
  if t.overlap_free then rebuild_dirty t else resync t

(* Revert the newest log entry.  A logged entry puts back the cache
   values its repair overwrote — the same values a second repair would
   compute, since undo runs LIFO and every cache is a function of the
   geometry — and replays the HPWL total's float deltas in incident
   order, as that repair would, so the total drifts bit for bit as it
   would have.  The bounding-box rule runs as for any change.  A raw
   entry (staged in a batch, rebuilt since) is repaired in full. *)
let unstage t =
  t.u_len <- t.u_len - 1;
  let u = t.ulog and base = t.u_len * u_stride in
  let i = u.(base) and mode = u.(base + 5) in
  if mode <> mode_same then begin
    let cx = t.x.(i) and cy = t.y.(i) and cw = t.w.(i) and ch = t.h.(i) in
    let nx = u.(base + 1) and ny = u.(base + 2) and nw = u.(base + 3) and nh = u.(base + 4) in
    t.x.(i) <- nx;
    t.y.(i) <- ny;
    t.w.(i) <- nw;
    t.h.(i) <- nh;
    if mode = mode_raw then repair t i ~ox:cx ~oy:cy ~ow:cw ~oh:ch ~log:false
    else begin
      if not t.overlap_free then begin
        let r0 = u.(base + 8) in
        for j = 0 to t.n - 1 do
          Array.unsafe_set t.row j (Array.unsafe_get t.rlog (r0 + j))
        done;
        t.r_len <- r0
      end;
      t.overlap <- u.(base + 6);
      let ob = u.(base + 7) in
      t.oob_total <- t.oob_total + ob - t.oob.(i);
      t.oob.(i) <- ob;
      let inc = t.incident.(i) in
      let deg = Array.length inc in
      let h0 = t.h_len - deg in
      let hpwl = ref t.hpwl.(0) in
      for p = 0 to deg - 1 do
        let nid = Array.unsafe_get inc p in
        let before = Array.unsafe_get t.net_hpwl nid in
        let restored = Array.unsafe_get t.hlog (h0 + p) in
        Array.unsafe_set t.net_hpwl nid restored;
        hpwl := !hpwl +. restored -. before
      done;
      t.hpwl.(0) <- !hpwl;
      t.h_len <- h0;
      bb_update t ~ox:cx ~oy:cy ~ow:cw ~oh:ch ~nx ~ny ~nw ~nh;
      if t.circuit.Circuit.symmetry <> [] then t.sym_dirty <- true
    end
  end

let undo t =
  if t.batching then invalid_arg "Incremental.undo: close the open batch first";
  if 4 * t.u_len > t.n then begin
    (* Reverting a large staged group: raw geometry restore plus one
       rebuild beats per-entry repair. *)
    while t.u_len > 0 do
      t.u_len <- t.u_len - 1;
      let base = t.u_len * u_stride in
      let i = t.ulog.(base) in
      t.x.(i) <- t.ulog.(base + 1);
      t.y.(i) <- t.ulog.(base + 2);
      t.w.(i) <- t.ulog.(base + 3);
      t.h.(i) <- t.ulog.(base + 4);
      mark_dirty t i
    done;
    t.r_len <- 0;
    t.h_len <- 0;
    if t.overlap_free then rebuild_dirty t else resync t
  end
  else
    while t.u_len > 0 do
      unstage t
    done

let commit t =
  if t.batching then invalid_arg "Incremental.commit: close the open batch first";
  t.committed <- t.committed + t.u_len;
  t.u_len <- 0;
  t.r_len <- 0;
  t.h_len <- 0;
  if t.committed >= t.resync_every then resync t

let total t =
  let w = Cost.weights in
  w.Cost.wirelength *. t.hpwl.(0)
  +. (w.Cost.area *. float_of_int (bbox_area t))
  +. (w.Cost.overlap *. float_of_int t.overlap)
  +. (w.Cost.out_of_bounds *. float_of_int t.oob_total)
  +. (w.Cost.symmetry *. symmetry t)

let breakdown t =
  {
    Cost.hpwl = t.hpwl.(0);
    bbox_area = bbox_area t;
    overlap_area = t.overlap;
    oob_area = t.oob_total;
    symmetry_misalign = symmetry t;
    total = total t;
  }
