open Mps_geometry
open Mps_netlist

type t = {
  circuit : Circuit.t;
  bounds : Dimbox.t;
  mutable slots : Stored.t option array;
  mutable n_slots : int;  (** Slots ever allocated; tombstones included. *)
  stride : int;  (** [2N]: axis codes per slot. *)
  mutable box_lo : int array;
      (** Slot [s]'s box bounds at [s * stride + code] (code [2i] = width
          of block [i], [2i+1] = height), grown with [slots]; a dead
          slot's bounds are stale and never read. *)
  mutable box_hi : int array;
  mutable n_live : int;
  mutable coverage : float option;
      (** {!coverage}'s last result; [None] after any insert or
          remove.  The explorer asks for both before every merged
          record. *)
}

let initial_slots = 16

let create circuit =
  let stride = 2 * Circuit.n_blocks circuit in
  {
    circuit;
    bounds = Circuit.dim_bounds circuit;
    slots = Array.make initial_slots None;
    n_slots = 0;
    stride;
    box_lo = Array.make (initial_slots * stride) 0;
    box_hi = Array.make (initial_slots * stride) 0;
    n_live = 0;
    coverage = None;
  }

let circuit t = t.circuit

let n_live t = t.n_live

let live t =
  let acc = ref [] in
  for i = t.n_slots - 1 downto 0 do
    match t.slots.(i) with
    | Some s -> acc := (i, s) :: !acc
    | None -> ()
  done;
  !acc

let get t i = if i < 0 || i >= t.n_slots then None else t.slots.(i)

let grow a len =
  let bigger = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 bigger 0 len;
  bigger

let insert t stored =
  if t.n_slots >= Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) None in
    Array.blit t.slots 0 bigger 0 t.n_slots;
    t.slots <- bigger;
    t.box_lo <- grow t.box_lo (t.n_slots * t.stride);
    t.box_hi <- grow t.box_hi (t.n_slots * t.stride)
  end;
  let id = t.n_slots in
  t.slots.(id) <- Some stored;
  Dimbox.flatten_into stored.Stored.box ~lo:t.box_lo ~hi:t.box_hi ~base:(id * t.stride);
  t.n_slots <- t.n_slots + 1;
  t.n_live <- t.n_live + 1;
  t.coverage <- None;
  id

let remove t id =
  match get t id with
  | None -> invalid_arg "Builder.remove: no such placement"
  | Some _ ->
    t.slots.(id) <- None;
    t.n_live <- t.n_live - 1;
    t.coverage <- None

(* Slot [s] is live and its box meets [box] on every axis.  [while]
   loops, not local recursive functions: without flambda their closures
   would allocate, and Resolve Overlaps runs this per slot per work
   item. *)
let meets t box s =
  match t.slots.(s) with
  | None -> false
  | Some _ ->
    let base = s * t.stride and n = t.stride / 2 in
    let i = ref 0 in
    while
      !i < n
      &&
      let w = Dimbox.w_interval box !i and h = Dimbox.h_interval box !i in
      let k = base + (2 * !i) in
      t.box_lo.(k) <= Interval.hi w
      && Interval.lo w <= t.box_hi.(k)
      && t.box_lo.(k + 1) <= Interval.hi h
      && Interval.lo h <= t.box_hi.(k + 1)
    do
      incr i
    done;
    !i >= n

(* The paper's [I] set: live placements overlapping a candidate box, by
   a scan of the flat bounds in ascending slot order. *)
let overlapping t box =
  let acc = ref [] in
  for s = t.n_slots - 1 downto 0 do
    if meets t box s then acc := s :: !acc
  done;
  !acc

(* The resolver only ever needs the smallest overlapping id: the same
   scan, stopped at the first hit. *)
let overlapping_any t box =
  let s = ref 0 in
  while !s < t.n_slots && not (meets t box !s) do
    incr s
  done;
  if !s < t.n_slots then !s else -1

type shrink_outcome =
  | Dropped
  | Shrunk of Dimbox.t
  | Forked of Dimbox.t * Dimbox.t

(* Axes ordered by overlap length, smallest first (paper: "the smallest
   dimension (row) in which the two placements are overlapping"). *)
let axes_by_overlap victim other =
  let overlap axis =
    Interval.overlap_length (Dimbox.axis_interval victim axis)
      (Dimbox.axis_interval other axis)
  in
  let axes = Dimbox.axes victim in
  List.sort (fun a b -> Int.compare (overlap a) (overlap b)) axes

let shrink_box_against ~victim ~other =
  if not (Dimbox.overlaps victim other) then
    invalid_arg "Builder.shrink_box_against: boxes are disjoint";
  let cuttable axis =
    let v = Dimbox.axis_interval victim axis and o = Dimbox.axis_interval other axis in
    not (Interval.contains_interval ~outer:o ~inner:v)
  in
  match List.find_opt cuttable (axes_by_overlap victim other) with
  | None -> Dropped
  | Some axis ->
    let v = Dimbox.axis_interval victim axis and o = Dimbox.axis_interval other axis in
    let below = Interval.before v ~limit:(Interval.lo o) in
    let above = Interval.after v ~limit:(Interval.hi o) in
    (match (below, above) with
    | Some b, Some a -> Forked (Dimbox.with_axis victim axis b, Dimbox.with_axis victim axis a)
    | Some b, None -> Shrunk (Dimbox.with_axis victim axis b)
    | None, Some a -> Shrunk (Dimbox.with_axis victim axis a)
    | None, None -> assert false (* [cuttable axis] ruled this out *))

(* Shrink a placement's box, keeping its quality fields honest: when
   the clamp moves [best_dims], the recorded [best_cost] no longer
   belongs to the recorded vector — recompute it at the clamped point
   (and keep [avg_cost >= best_cost]).  This is what lets the auditor
   re-verify the cost fields of any structure within tolerance. *)
let with_box_refreshed t stored box =
  let shrunk = Stored.with_box stored box in
  if Dims.equal shrunk.Stored.best_dims stored.Stored.best_dims then shrunk
  else
    let p = shrunk.Stored.placement in
    let rects = Mps_placement.Placement.rects p shrunk.Stored.best_dims in
    let best_cost =
      Mps_cost.Cost.total t.circuit
        ~die_w:p.Mps_placement.Placement.die_w ~die_h:p.Mps_placement.Placement.die_h
        rects
    in
    { shrunk with Stored.best_cost; avg_cost = Float.max shrunk.Stored.avg_cost best_cost }

let resolve_and_store t candidate =
  let stored_ids = ref [] in
  let work = Queue.create () in
  Queue.add candidate work;
  while not (Queue.is_empty work) do
    let c = Queue.pop work in
    let idx = overlapping_any t c.Stored.box in
    if idx < 0 then stored_ids := insert t c :: !stored_ids
    else begin
      let pi =
        match get t idx with
        | Some s -> s
        | None -> assert false (* the scan only returns live slots *)
      in
      if pi.Stored.template_like || pi.Stored.avg_cost > c.Stored.avg_cost then begin
        (* The stored placement loses the contested region.  Backup
           territory always yields: a candidate only reaches this point
           after the generator's local-dominance admission test proved
           it beats the template inside its own box. *)
        remove t idx;
        (match shrink_box_against ~victim:pi.Stored.box ~other:c.Stored.box with
        | Dropped -> ()
        | Shrunk box -> ignore (insert t (with_box_refreshed t pi box))
        | Forked (b1, b2) ->
          ignore (insert t (with_box_refreshed t pi b1));
          ignore (insert t (with_box_refreshed t pi b2)));
        Queue.add c work
      end
      else begin
        match shrink_box_against ~victim:c.Stored.box ~other:pi.Stored.box with
        | Dropped -> ()
        | Shrunk box -> Queue.add (with_box_refreshed t c box) work
        | Forked (b1, b2) ->
          Queue.add (with_box_refreshed t c b1) work;
          Queue.add (with_box_refreshed t c b2) work
      end
    end
  done;
  List.rev !stored_ids

let coverage t =
  match t.coverage with
  | Some c -> c
  | None ->
    (* template-like placements (the backup's territory) do not count as
       covered space: coverage measures what the explorer discovered *)
    let c =
      List.fold_left
        (fun acc (_, s) ->
          if s.Stored.template_like then acc
          else acc +. Dimbox.volume_fraction s.Stored.box ~bounds:t.bounds)
        0.0 (live t)
    in
    t.coverage <- Some c;
    c

let boxes_disjoint t =
  let all = live t in
  List.for_all
    (fun (i, a) ->
      List.for_all
        (fun (j, b) -> i >= j || not (Dimbox.overlaps a.Stored.box b.Stored.box))
        all)
    all

let bounds_consistent t =
  let lo = Array.make t.stride 0 and hi = Array.make t.stride 0 in
  List.for_all
    (fun (id, s) ->
      Dimbox.flatten_into s.Stored.box ~lo ~hi ~base:0;
      Array.sub t.box_lo (id * t.stride) t.stride = lo
      && Array.sub t.box_hi (id * t.stride) t.stride = hi)
    (live t)
