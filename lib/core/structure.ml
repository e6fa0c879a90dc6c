open Mps_geometry
open Mps_netlist

(* The paper's rows (Fig. 3) exist in one form: the flat plan below,
   swept from the placements' boxes once in [of_placements] and used for
   every answer (DESIGN.md §10).  A structure is its compiled plan plus
   the records the plan indexes; [query_linear] is the reference oracle
   it is checked against. *)

let bits_per_word = Sys.int_size

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  circuit : Circuit.t;
  stored : Stored.t array;
  backup : Stored.t;
  (* Re-pack visit orders ([Repack.order]) of the backup and of every
     stored placement (by id), computed with the plan so re-packed
     answers allocate nothing.  They live here, not in a session, so a
     session rebound to another engine never sees a stale order. *)
  backup_order : int array;
  repack_orders : int array array;
  space : Dimbox.t;
  die_w : int;
  die_h : int;
  n_blocks : int;
  capacity : int;  (** number of stored placements *)
  words_per_set : int;
  tail_mask : int;  (** mask for the last word of a full set *)
  n_rows : int;
  lows_len : int;
      (** usable interval slots: caps binary-search indices so even
          garbage offsets read under a corrupted mapping stay inside
          [lows]/[highs]/[set_words] *)
  (* The narrowing plan, selectivity-ordered.  Row [r] tests axis
     [row_axis.{r}] (code [2i] = width of block [i], [2i+1] = height)
     against intervals [row_off.{r} .. row_off.{r+1} - 1] of the flat
     arrays; interval [k]'s placement set occupies words
     [k * words_per_set ..) of [set_words].  The arrays are int
     bigarrays so they can either live on the heap (built by
     [of_placements]) or be zero-copy views into a read-only file
     mapping ([Engine.of_flat]); the query kernel is the same either
     way. *)
  row_axis : ints;
  row_off : ints;
  row_of_code : int array;
      (** the row testing each axis code, [-1] for a skipped code; on
          the heap, from the validated [row_axis] *)
  lows : ints;
  highs : ints;
  set_words : ints;
  skipped_rows : int;
  (* Designer dimension space flattened per axis code: [Circuit.dims_valid]
     is exactly containment in these bounds, checked here without going
     through the block records. *)
  dom_lo : ints;
  dom_hi : ints;
  (* Every validity box flattened the same way ([box id * 2n + code]),
     so the hot-box test is pure int-array compares; [box_in_domain]
     (0/1 words) marks boxes fully inside the designer space, for which
     box membership implies domain membership and the domain check can
     be skipped. *)
  box_lo : ints;
  box_hi : ints;
  box_in_domain : ints;
  (* Every stored placement's expansion box, flattened like [box_lo]/
     [box_hi]: the raw-fill test.  Plain heap arrays, built from the
     placement records, never part of the exchange form. *)
  exp_lo : int array;
  exp_hi : int array;
  mutable checked : bool;
      (** eq. 5 proved for [stored]: always for [of_placements]; for a
          plan wrapped by [Engine.of_flat], once [Engine.structure] has
          run the check (a racing second check is merely redundant) *)
}

let order_of (s : Stored.t) =
  Mps_placement.Repack.order s.Stored.placement.Mps_placement.Placement.coords

let ints_of_array (a : int array) : ints =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
  b

(* One box per stored placement, flattened at [id * stride + code]. *)
let flatten_boxes stored ~stride box =
  let lo = Array.make (Array.length stored * stride) 0 in
  let hi = Array.make (Array.length stored * stride) 0 in
  Array.iteri (fun id s -> Dimbox.flatten_into (box s) ~lo ~hi ~base:(id * stride)) stored;
  (lo, hi)

let usable_intervals ~lows ~set_words ~words_per_set =
  min (Bigarray.Array1.dim lows) (Bigarray.Array1.dim set_words / words_per_set)

let tail_mask_of capacity =
  let used = capacity mod bits_per_word in
  if used = 0 then -1 else (1 lsl used) - 1

(* eq. 5: at most one stored placement answers any vector.  O(n²), the
   check every placement set from outside goes through. *)
let check_disjoint stored =
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j && Dimbox.overlaps a.Stored.box b.Stored.box then
            invalid_arg "Structure.of_placements: overlapping validity boxes")
        stored)
    stored

(* One axis code's row by an endpoint sweep over the flattened boxes
   ([stride] codes per placement): placement [id] enters at its lower
   bound and leaves one past its upper bound, and each non-empty run
   between consecutive breakpoints is one interval object.  No id enters
   and leaves at the same breakpoint, so every breakpoint changes the
   set and no two touching objects carry equal sets: the runs already
   are the canonical row of Fig. 3 (ascending, disjoint, non-empty, no
   mergeable neighbours). *)
type swept_row = {
  code : int;
  len : int;  (** interval objects *)
  lo : int array;  (** object bounds, [len] used *)
  hi : int array;
  words : int array;  (** object [k]'s set at words [k * words_per_set ..) *)
  total : int;  (** sum of the sets' sizes *)
}

let sweep_row ~box_lo ~box_hi ~stride ~code ~capacity ~words_per_set =
  let n_events = 2 * capacity in
  (* event [e < capacity] opens placement [e], [e >= capacity] closes
     placement [e - capacity] *)
  let at = Array.make n_events 0 in
  for id = 0 to capacity - 1 do
    at.(id) <- box_lo.((id * stride) + code);
    at.(capacity + id) <- box_hi.((id * stride) + code) + 1
  done;
  let events = Array.init n_events Fun.id in
  Array.sort (fun a b -> Int.compare at.(a) at.(b)) events;
  let lo = Array.make n_events 0 and hi = Array.make n_events 0 in
  let words = Array.make (n_events * words_per_set) 0 in
  let cur = Array.make words_per_set 0 in
  let n = ref 0 and total = ref 0 and members = ref 0 and e = ref 0 in
  while !e < n_events do
    let pos = at.(events.(!e)) in
    while !e < n_events && at.(events.(!e)) = pos do
      let ev = events.(!e) in
      let id = if ev < capacity then ev else ev - capacity in
      let w = id / bits_per_word and bit = 1 lsl (id mod bits_per_word) in
      if ev < capacity then begin
        cur.(w) <- cur.(w) lor bit;
        incr members
      end
      else begin
        cur.(w) <- cur.(w) land lnot bit;
        decr members
      end;
      incr e
    done;
    (* every open has its close further on, so a non-empty run has a
       next breakpoint *)
    if !members > 0 then begin
      lo.(!n) <- pos;
      hi.(!n) <- at.(events.(!e)) - 1;
      Array.blit cur 0 words (!n * words_per_set) words_per_set;
      total := !total + !members;
      incr n
    end
  done;
  { code; len = !n; lo; hi; words; total = !total }

let of_placements ?backup circuit stored =
  if Array.length stored = 0 then invalid_arg "Structure.of_placements: no placements";
  let n_blocks = Circuit.n_blocks circuit in
  Array.iter
    (fun s ->
      if Stored.n_blocks s <> n_blocks then
        invalid_arg "Structure.of_placements: block count mismatch")
    stored;
  check_disjoint stored;
  let capacity = Array.length stored in
  let best = ref 0 in
  Array.iteri
    (fun id s ->
      if s.Stored.best_cost < stored.(!best).Stored.best_cost then best := id)
    stored;
  let backup = match backup with Some b -> b | None -> stored.(!best) in
  if Stored.n_blocks backup <> n_blocks then
    invalid_arg "Structure.of_placements: backup block count mismatch";
  let die_w, die_h =
    let p = stored.(0).Stored.placement in
    (p.Mps_placement.Placement.die_w, p.Mps_placement.Placement.die_h)
  in
  let space = Circuit.dim_bounds circuit in
  let stride = 2 * n_blocks in
  let dom_lo = Array.make stride 0 and dom_hi = Array.make stride 0 in
  Dimbox.flatten_into space ~lo:dom_lo ~hi:dom_hi ~base:0;
  let box_lo, box_hi = flatten_boxes stored ~stride (fun s -> s.Stored.box) in
  let exp_lo, exp_hi = flatten_boxes stored ~stride (fun s -> s.Stored.expansion) in
  let box_in_domain =
    Array.map
      (fun s -> if Dimbox.contains_box ~outer:space ~inner:s.Stored.box then 1 else 0)
      stored
  in
  let words_per_set = max 1 ((capacity + bits_per_word - 1) / bits_per_word) in
  (* One candidate row per axis code. *)
  let candidates =
    List.init stride (fun code ->
        sweep_row ~box_lo ~box_hi ~stride ~code ~capacity ~words_per_set)
  in
  (* A row narrows nothing when its single interval spans the whole
     designer axis with every placement on it: any in-domain value maps
     to the full set.  Skip it. *)
  let narrows r =
    not
      (r.len = 1
      && r.lo.(0) <= dom_lo.(r.code)
      && r.hi.(0) >= dom_hi.(r.code)
      && r.total = capacity)
  in
  let active, skipped = List.partition narrows candidates in
  (* Most selective first: smallest average set, then more intervals,
     then axis code for determinism. *)
  let ordered =
    List.stable_sort
      (fun a b ->
        let avg r = float_of_int r.total /. float_of_int (max 1 r.len) in
        match Float.compare (avg a) (avg b) with
        | 0 -> ( match Int.compare b.len a.len with 0 -> Int.compare a.code b.code | c -> c)
        | c -> c)
      active
  in
  let n_rows = List.length ordered in
  let n_intervals = List.fold_left (fun a r -> a + r.len) 0 ordered in
  let row_axis = Array.make n_rows 0 in
  let row_off = Array.make (n_rows + 1) 0 in
  let lows = Array.make (max 1 n_intervals) 0 in
  let highs = Array.make (max 1 n_intervals) 0 in
  let set_words = Array.make (max 1 (n_intervals * words_per_set)) 0 in
  let k = ref 0 in
  List.iteri
    (fun i r ->
      row_axis.(i) <- r.code;
      row_off.(i) <- !k;
      Array.blit r.lo 0 lows !k r.len;
      Array.blit r.hi 0 highs !k r.len;
      Array.blit r.words 0 set_words (!k * words_per_set) (r.len * words_per_set);
      k := !k + r.len)
    ordered;
  row_off.(n_rows) <- !k;
  let row_of_code = Array.make stride (-1) in
  Array.iteri (fun r code -> row_of_code.(code) <- r) row_axis;
  let lows = ints_of_array lows
  and highs = ints_of_array highs
  and set_words = ints_of_array set_words in
  {
    circuit;
    stored = Array.copy stored;
    backup;
    backup_order = order_of backup;
    repack_orders = Array.map order_of stored;
    space;
    die_w;
    die_h;
    n_blocks;
    capacity;
    words_per_set;
    tail_mask = tail_mask_of capacity;
    n_rows;
    lows_len = usable_intervals ~lows ~set_words ~words_per_set;
    row_axis = ints_of_array row_axis;
    row_off = ints_of_array row_off;
    row_of_code;
    lows;
    highs;
    set_words;
    skipped_rows = List.length skipped;
    dom_lo = ints_of_array dom_lo;
    dom_hi = ints_of_array dom_hi;
    box_lo = ints_of_array box_lo;
    box_hi = ints_of_array box_hi;
    box_in_domain = ints_of_array box_in_domain;
    exp_lo;
    exp_hi;
    checked = true;
  }

let compile ?backup builder =
  let entries = Builder.live builder in
  if entries = [] then invalid_arg "Structure.compile: empty builder";
  of_placements ?backup (Builder.circuit builder) (Array.of_list (List.map snd entries))

(* Lenient compilation for quarantine/repair: instead of refusing a
   flawed placement set, keep the largest well-formed disjoint subset —
   better (lower average-cost) placements win contested territory — and
   report what was dropped.  Queries over dropped territory fall back to
   the backup template, the paper's answer for uncovered space. *)
let of_placements_lenient ?backup circuit stored =
  let n_blocks = Circuit.n_blocks circuit in
  let backup =
    match backup with
    | Some b when Stored.n_blocks b = n_blocks -> Some b
    | _ -> None
  in
  let indexed = Array.to_list (Array.mapi (fun i s -> (i, s)) stored) in
  let by_quality =
    List.stable_sort
      (fun (_, a) (_, b) -> Float.compare a.Stored.avg_cost b.Stored.avg_cost)
      indexed
  in
  let kept = ref [] and dropped = ref [] in
  List.iter
    (fun (i, s) ->
      let admissible =
        Stored.n_blocks s = n_blocks
        && (s.Stored.template_like
           || Dimbox.contains_box ~outer:s.Stored.expansion ~inner:s.Stored.box)
        && Dimbox.contains s.Stored.box s.Stored.best_dims
        && not
             (List.exists
                (fun (_, k) -> Dimbox.overlaps k.Stored.box s.Stored.box)
                !kept)
      in
      if admissible then kept := (i, s) :: !kept else dropped := i :: !dropped)
    by_quality;
  let kept = List.sort (fun (i, _) (j, _) -> Int.compare i j) !kept in
  let survivors = Array.of_list (List.map snd kept) in
  let survivors =
    if Array.length survivors > 0 then survivors
    else match backup with Some b -> [| b |] | None -> [||]
  in
  if Array.length survivors = 0 then
    invalid_arg "Structure.of_placements_lenient: no admissible placement";
  (of_placements ?backup circuit survivors, List.sort Int.compare !dropped)

let circuit t = t.circuit
let n_placements t = Array.length t.stored

let n_explored t =
  Array.fold_left (fun acc s -> if s.Stored.template_like then acc else acc + 1) 0 t.stored
let placements t = Array.copy t.stored
let backup t = t.backup
let die t = (t.die_w, t.die_h)

let coverage t =
  Array.fold_left
    (fun acc s ->
      if s.Stored.template_like then acc
      else acc +. Dimbox.volume_fraction s.Stored.box ~bounds:t.space)
    0.0 t.stored

let coverage_sampled ~seed ~samples t =
  if samples <= 0 then invalid_arg "Structure.coverage_sampled: need samples";
  let rng = Mps_rng.Rng.create ~seed in
  let hits = ref 0 in
  for _ = 1 to samples do
    let dims = Dimbox.random_dims rng t.space in
    let covered =
      Array.exists
        (fun s -> (not s.Stored.template_like) && Dimbox.contains s.Stored.box dims)
        t.stored
    in
    if covered then incr hits
  done;
  float_of_int !hits /. float_of_int samples

let describe t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "structure for %s" t.circuit.Circuit.name;
  line "  die: %dx%d" t.die_w t.die_h;
  let explored = ref 0 and template = ref 0 in
  Array.iter
    (fun s -> if s.Stored.template_like then incr template else incr explored)
    t.stored;
  line "  placements: %d explored + %d template pieces" !explored !template;
  line "  coverage (explored): %.6f" (coverage t);
  (* Every skipped row holds exactly one interval object. *)
  line "  interval objects: %d over %d blocks"
    (t.row_off.{t.n_rows} + t.skipped_rows)
    t.n_blocks;
  line "  engine: %d narrowing rows (%d skipped as non-selective)" t.n_rows t.skipped_rows;
  let best = ref t.stored.(0) in
  Array.iter (fun s -> if s.Stored.best_cost < !best.Stored.best_cost then best := s) t.stored;
  line "  best stored cost: %.1f (avg %.1f)" !best.Stored.best_cost !best.Stored.avg_cost;
  Buffer.contents buf

type answer =
  | Stored_placement of int
  | Fallback
  | Out_of_domain

let answer_to_string = function
  | Stored_placement id -> Printf.sprintf "stored:%d" id
  | Fallback -> "fallback"
  | Out_of_domain -> "out-of-domain"

(* ------------------------------------------------------------------ *)
(* The query engine (DESIGN.md §10): the kernel over the flat plan.
   All per-query scratch lives in a reusable [session], so a
   steady-state query allocates nothing.  A sizing walk changes one or
   two axes per step, and the session answers each step from what it
   changed: it keeps the previous vector and answer (the hot-box
   cache), a per-row memo of the narrowing, and raw-fill and re-pack
   state per placement. *)

module Engine = struct
  type nonrec t = t
  type nonrec ints = ints

  type session = {
    mutable owner : t option;  (** engine the scratch is currently sized for *)
    mutable acc : int array;  (** scratch intersection words *)
    (* The step: the previous query's vector, valid when [last] is not
       [no_answer], and the axis codes the current query moved away
       from it ([moved.(0 .. n_moved - 1)]). *)
    mutable at_w : int array;
    mutable at_h : int array;
    mutable moved : int array;
    mutable n_moved : int;
    (* The row memo: row [r]'s last lookup found interval [memo_k.(r)]
       ([-1] for a gap), and every value in [memo_lo.(r) .. memo_hi.(r)]
       finds the same.  A function of the plan alone, so it only needs
       emptying when the session changes engine. *)
    mutable memo_lo : int array;
    mutable memo_hi : int array;
    mutable memo_k : int array;
    mutable rects : Rect.t array;  (** scratch floorplan buffer *)
    (* The raw-fill state ([raw_fits]): per axis, a value inside stored
       placement [raw_id]'s expansion box ([-1]: none) or [min_int]. *)
    mutable raw_id : int;
    mutable raw_w : int array;
    mutable raw_h : int array;
    warm : Mps_placement.Repack.warm;  (** re-pack state, keyed by placement *)
    mutable last : int;
        (** the previous query's answer ([query_id]'s codes, or
            [no_answer]): a stored id is the hot-box cache *)
    mutable fb_exit : int;
        (** when [last] is a fallback, the row its narrowing stopped at:
            rows [0 .. fb_exit] hold memo ranges around its values *)
    mutable queries : int;
    mutable cache_hits : int;
    mutable stored_hits : int;
    mutable fallbacks : int;
    mutable out_of_domain : int;
  }

  type stats = {
    queries : int;
    cache_hits : int;
    stored_hits : int;
    fallbacks : int;
    out_of_domain : int;
  }

  let create s = s

  (* A plan wrapped by [of_flat] has not been through [of_placements]:
     prove eq. 5 over its placements before it may pass as a
     structure. *)
  let structure t =
    if not t.checked then begin
      check_disjoint t.stored;
      t.checked <- true
    end;
    t

  let circuit t = t.circuit
  let backup t = t.backup
  let n_stored t = t.capacity
  let die t = (t.die_w, t.die_h)
  let n_active_rows t = t.n_rows
  let n_skipped_rows t = t.skipped_rows

  (* [last] before the first query on an engine, or while a vector is
     being taken in. *)
  let no_answer = -3

  let new_session () =
    {
      owner = None;
      acc = [||];
      at_w = [||];
      at_h = [||];
      moved = [||];
      n_moved = 0;
      memo_lo = [||];
      memo_hi = [||];
      memo_k = [||];
      rects = [||];
      raw_id = -1;
      raw_w = [||];
      raw_h = [||];
      warm = Mps_placement.Repack.warm ();
      last = no_answer;
      fb_exit = -1;
      queries = 0;
      cache_hits = 0;
      stored_hits = 0;
      fallbacks = 0;
      out_of_domain = 0;
    }

  (* (Re)size the scratch for [t].  A session is engine-agnostic: the
     first query against a different engine rebinds it and drops every
     piece of state that indexes the previous engine's plan or
     placements — previous vector and answer, row memo, raw fill and
     re-pack.  The rect
     buffer is sized by [instantiate_into], its only user, so a one-shot
     [Structure.query] session never allocates it. *)
  let bind t session =
    match session.owner with
    | Some o when o == t -> ()
    | _ ->
      if Array.length session.acc < t.words_per_set then
        session.acc <- Array.make t.words_per_set 0;
      if Array.length session.at_w < t.n_blocks then begin
        session.at_w <- Array.make t.n_blocks 0;
        session.at_h <- Array.make t.n_blocks 0;
        session.moved <- Array.make (2 * t.n_blocks) 0
      end;
      if Array.length session.memo_k < t.n_rows then begin
        session.memo_lo <- Array.make t.n_rows 0;
        session.memo_hi <- Array.make t.n_rows 0;
        session.memo_k <- Array.make t.n_rows 0
      end;
      (* empty ranges: no value matches until a row is searched *)
      Array.fill session.memo_lo 0 t.n_rows max_int;
      Array.fill session.memo_hi 0 t.n_rows min_int;
      session.owner <- Some t;
      session.last <- no_answer;
      session.raw_id <- -1;
      Mps_placement.Repack.forget session.warm

  (* [dims] inside the flattened bounds [lo/hi.{base + code}]?  Pure
     int-array compares over the live dim arrays, in a [while] loop:
     without flambda a local recursive closure would allocate on every
     query, and a [Dims.width] call per axis is not inlined across
     modules. *)
  let within ~(lo : ints) ~(hi : ints) ~base n dims =
    let dw = Dims.unsafe_widths dims and dh = Dims.unsafe_heights dims in
    let i = ref 0 in
    while
      !i < n
      &&
      let w = dw.(!i) and h = dh.(!i) in
      let j = base + (2 * !i) in
      w >= lo.{j} && w <= hi.{j} && h >= lo.{j + 1} && h <= hi.{j + 1}
    do
      incr i
    done;
    !i >= n

  (* Equivalent to [Circuit.dims_valid] (designer bounds containment). *)
  let in_domain t dims = within ~lo:t.dom_lo ~hi:t.dom_hi ~base:0 t.n_blocks dims

  (* The narrowing: intersect the placement sets of every row's
     interval holding the vector; [true] when a set survives all rows.
     The plan may be a view into a file mapping that gets corrupted
     underneath us: a garbage axis code or interval range must turn
     into a miss (fallback), never an out-of-bounds access — hence the
     code guard and the clamped binary-search range, whose result (and
     so every memoised index) lies in [0, lows_len).  A [while] loop,
     like [within]. *)
  let narrow t session dims =
    let acc = session.acc in
    let wps = t.words_per_set in
    Array.fill acc 0 wps (-1);
    acc.(wps - 1) <- t.tail_mask;
    let dw = Dims.unsafe_widths dims and dh = Dims.unsafe_heights dims in
    let memo_lo = session.memo_lo and memo_hi = session.memo_hi in
    let memo_k = session.memo_k in
    let n_rows = t.n_rows and n_blocks = t.n_blocks in
    let row_axis = t.row_axis and row_off = t.row_off in
    let lows = t.lows and highs = t.highs and set_words = t.set_words in
    let lows_len = t.lows_len in
    let r = ref 0 and live = ref true in
    while !live && !r < n_rows do
      let row = !r in
      let code = row_axis.{row} in
      if code < 0 || code lsr 1 >= n_blocks then live := false
      else begin
        let v = if code land 1 = 0 then dw.(code lsr 1) else dh.(code lsr 1) in
        let k =
          if v >= memo_lo.(row) && v <= memo_hi.(row) then memo_k.(row)
          else begin
            (* Largest k in the row's interval range with lows.{k} <= v;
               on a sorted row it answers every value from lows.{k} to
               just below lows.{k + 1}, which is the range memoised. *)
            let l0 = max 0 row_off.{row} and h0 = min row_off.{row + 1} lows_len - 1 in
            let l = ref l0 and h = ref h0 and k = ref (-1) in
            while !l <= !h do
              let mid = (!l + !h) / 2 in
              if lows.{mid} <= v then begin
                k := mid;
                l := mid + 1
              end
              else h := mid - 1
            done;
            let k = !k in
            if k < 0 then begin
              memo_lo.(row) <- min_int;
              memo_hi.(row) <- (if l0 <= h0 then lows.{l0} - 1 else max_int);
              memo_k.(row) <- -1;
              -1
            end
            else begin
              let next = if k < h0 then lows.{k + 1} - 1 else max_int in
              let hk = highs.{k} in
              if hk < v then begin
                memo_lo.(row) <- hk + 1;
                memo_hi.(row) <- next;
                memo_k.(row) <- -1;
                -1
              end
              else begin
                memo_lo.(row) <- lows.{k};
                memo_hi.(row) <- (if hk < next then hk else next);
                memo_k.(row) <- k;
                k
              end
            end
          end
        in
        if k < 0 then live := false
        else begin
          let base = k * wps in
          let any = ref 0 in
          for w = 0 to wps - 1 do
            let x = acc.(w) land set_words.{base + w} in
            acc.(w) <- x;
            any := !any lor x
          done;
          if !any = 0 then live := false else incr r
        end
      end
    done;
    session.fb_exit <- !r;
    !live

  (* Take [dims] in as the session's vector and list the axis codes
     it moved; with no previous vector ([prev = no_answer]) copy it
     whole, listing nothing — every later test is then a full one. *)
  let step t session ~prev dims =
    let n = t.n_blocks in
    let dw = Dims.unsafe_widths dims and dh = Dims.unsafe_heights dims in
    let aw = session.at_w and ah = session.at_h in
    if prev = no_answer then begin
      Array.blit dw 0 aw 0 n;
      Array.blit dh 0 ah 0 n;
      session.n_moved <- 0
    end
    else begin
      let moved = session.moved in
      let m = ref 0 in
      for i = 0 to n - 1 do
        let w = dw.(i) and h = dh.(i) in
        if w <> aw.(i) then begin
          aw.(i) <- w;
          moved.(!m) <- 2 * i;
          incr m
        end;
        if h <> ah.(i) then begin
          ah.(i) <- h;
          moved.(!m) <- (2 * i) + 1;
          incr m
        end
      done;
      session.n_moved <- !m
    end

  (* The session's value on axis [code]. *)
  let[@inline] at session code =
    if code land 1 = 0 then session.at_w.(code lsr 1) else session.at_h.(code lsr 1)

  (* Every moved axis inside the flattened bounds [lo/hi.{base + code}]:
     the vector is inside them when the previous one was. *)
  let moved_within session ~(lo : ints) ~(hi : ints) ~base =
    let moved = session.moved in
    let k = ref 0 in
    while
      !k < session.n_moved
      &&
      let code = moved.(!k) in
      let v = at session code and j = base + code in
      v >= lo.{j} && v <= hi.{j}
    do
      incr k
    done;
    !k >= session.n_moved

  (* The previous query narrowed to a fallback, stopping at row
     [fb_exit].  When every moved axis whose row is among rows
     [0 .. fb_exit] stayed inside that row's memo range, each of those
     rows finds the interval it found then, so the narrowing would
     stop at the same row, the same way. *)
  let moved_rows_kept t session =
    let moved = session.moved and fb_exit = session.fb_exit in
    let k = ref 0 in
    while
      !k < session.n_moved
      &&
      let code = moved.(!k) in
      let r = t.row_of_code.(code) in
      r < 0 || r > fb_exit
      ||
      let v = at session code in
      v >= session.memo_lo.(r) && v <= session.memo_hi.(r)
    do
      incr k
    done;
    !k >= session.n_moved

  (* The narrowing's answer: the set's one member, [-1] when it emptied. *)
  let narrowed_id t session dims =
    if narrow t session dims then begin
      (* Non-empty by construction; eq. 5 makes the member unique. *)
      let acc = session.acc in
      let id = ref (-1) and w = ref 0 in
      while !id < 0 do
        if acc.(!w) <> 0 then begin
          let word = acc.(!w) in
          let b = ref 0 in
          while word land (1 lsl !b) = 0 do
            incr b
          done;
          id := (!w * bits_per_word) + !b
        end
        else incr w
      done;
      (* A phantom bit past capacity: only set-word corruption can put
         one there (the tail mask clears them on a healthy engine).
         Fall back rather than index out of range. *)
      if !id < t.capacity then !id else -1
    end
    else -1

  (* The zero-allocation primitive: the stored-placement index on a
     hit, [-1] for fallback, [-2] for out-of-domain.  [session.last]
     reads [no_answer] until the vector is taken in whole, so an
     exception half-way leaves no stale step behind. *)
  let query_id t session dims =
    if Dims.n_blocks dims <> t.n_blocks then
      invalid_arg "Structure.Engine.query: block count mismatch";
    bind t session;
    session.queries <- session.queries + 1;
    let prev = session.last in
    session.last <- no_answer;
    step t session ~prev dims;
    let answer =
      (* Hot-box fast path: the previous answer's box, fully inside the
         designer space, held the previous vector; if the moved axes
         stay inside it, it answers — membership implies domain
         validity, so even the domain check is skipped. *)
      if
        prev >= 0
        && t.box_in_domain.{prev} <> 0
        && moved_within session ~lo:t.box_lo ~hi:t.box_hi ~base:(prev * 2 * t.n_blocks)
      then begin
        session.cache_hits <- session.cache_hits + 1;
        session.stored_hits <- session.stored_hits + 1;
        prev
      end
      else if
        not
          (if prev >= -1 then moved_within session ~lo:t.dom_lo ~hi:t.dom_hi ~base:0
           else in_domain t dims)
      then begin
        session.out_of_domain <- session.out_of_domain + 1;
        -2
      end
      else if
        (* Hot-box slow path: a box that sticks out of the designer
           space (degraded structures) may only answer after the domain
           check. *)
        prev >= 0
        && t.box_in_domain.{prev} = 0
        && moved_within session ~lo:t.box_lo ~hi:t.box_hi ~base:(prev * 2 * t.n_blocks)
      then begin
        session.cache_hits <- session.cache_hits + 1;
        session.stored_hits <- session.stored_hits + 1;
        prev
      end
      else if prev = -1 && moved_rows_kept t session then begin
        session.fallbacks <- session.fallbacks + 1;
        -1
      end
      else begin
        let id = narrowed_id t session dims in
        if id >= 0 then session.stored_hits <- session.stored_hits + 1
        else session.fallbacks <- session.fallbacks + 1;
        id
      end
    in
    session.last <- answer;
    answer

  let query t session dims =
    match query_id t session dims with
    | -2 -> (Out_of_domain, t.backup)
    | -1 -> (Fallback, t.backup)
    | id -> (Stored_placement id, t.stored.(id))

  (* [dims] inside stored placement [id]'s expansion box, so its raw
     coordinates answer?  The raw state holds, per axis, a value inside
     [raw_id]'s expansion box or [min_int] (not known), so only the
     axes that differ from it are tested, and each is taken in as it
     passes.  A new placement starts from an unknown state: every axis
     is tested. *)
  let raw_fits t session id dims =
    let n = t.n_blocks in
    let rw = session.raw_w and rh = session.raw_h in
    if session.raw_id <> id then begin
      Array.fill rw 0 n min_int;
      Array.fill rh 0 n min_int;
      session.raw_id <- id
    end;
    let dw = Dims.unsafe_widths dims and dh = Dims.unsafe_heights dims in
    let lo = t.exp_lo and hi = t.exp_hi and base = id * 2 * n in
    let i = ref 0 in
    while
      !i < n
      &&
      let w = dw.(!i) and h = dh.(!i) in
      let j = base + (2 * !i) in
      (w = rw.(!i)
      || w >= lo.(j) && w <= hi.(j)
         && begin
           rw.(!i) <- w;
           true
         end)
      && (h = rh.(!i)
         || h >= lo.(j + 1) && h <= hi.(j + 1)
            && begin
              rh.(!i) <- h;
              true
            end)
    do
      incr i
    done;
    !i >= n

  (* A top-level function, not a local closure: without flambda the
     closure would allocate on every answer. *)
  let repack session ~key (s : Stored.t) ~order dims =
    let p = s.Stored.placement in
    Mps_placement.Repack.pack_warm session.warm ~key ~order
      ~coords:p.Mps_placement.Placement.coords ~die_w:p.Mps_placement.Placement.die_w
      ~die_h:p.Mps_placement.Placement.die_h ~out:session.rects dims

  (* Fill the session's rect buffer in place and return it: valid until
     the session's next [instantiate_into].  Every answer is
     allocation-free and writes all n rects from the session's own
     state: raw coordinates inside the expansion box, else a warm
     re-pack keyed by placement (the backup's key is [capacity]) with
     the order precomputed in [t] — the backup's for fallbacks, which
     are the sizing walk's most common answer. *)
  let instantiate_into t session dims =
    let id = query_id t session dims in
    let n = t.n_blocks in
    if Array.length session.rects <> n then begin
      session.rects <- Array.init n (fun _ -> Rect.make ~x:0 ~y:0 ~w:1 ~h:1);
      session.raw_w <- Array.make n 0;
      session.raw_h <- Array.make n 0;
      session.raw_id <- -1
    end;
    let out = session.rects in
    if id < 0 then repack session ~key:t.capacity t.backup ~order:t.backup_order dims
    else begin
      let s = t.stored.(id) in
      if raw_fits t session id dims then begin
        let coords = s.Stored.placement.Mps_placement.Placement.coords in
        let dw = Dims.unsafe_widths dims and dh = Dims.unsafe_heights dims in
        for i = 0 to n - 1 do
          let r = out.(i) and x, y = coords.(i) in
          r.Rect.x <- x;
          r.Rect.y <- y;
          r.Rect.w <- dw.(i);
          r.Rect.h <- dh.(i)
        done
      end
      else repack session ~key:id s ~order:t.repack_orders.(id) dims
    end;
    out

  (* Freshly allocated floorplan (safe to retain), same answers. *)
  let instantiate t session dims =
    let id = query_id t session dims in
    if id >= 0 then Stored.instantiate_auto t.stored.(id) dims
    else Stored.instantiate_repacked t.backup dims

  let instantiate_cost t session dims =
    let rects = instantiate_into t session dims in
    let cost = Mps_cost.Cost.total t.circuit ~die_w:t.die_w ~die_h:t.die_h rects in
    (rects, cost)

  let stats (session : session) : stats =
    {
      queries = session.queries;
      cache_hits = session.cache_hits;
      stored_hits = session.stored_hits;
      fallbacks = session.fallbacks;
      out_of_domain = session.out_of_domain;
    }

  let describe t session =
    let buf = Buffer.create 512 in
    Buffer.add_string buf (describe t);
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let s = stats session in
    line "  queries: %d (%d stored hits, %d fallbacks, %d out-of-domain)" s.queries
      s.stored_hits s.fallbacks s.out_of_domain;
    line "  hot-box cache: %d hits / %d queries (%.1f%%)" s.cache_hits s.queries
      (if s.queries = 0 then 0.0
       else 100.0 *. float_of_int s.cache_hits /. float_of_int s.queries);
    Buffer.contents buf

  (* ---------------------------------------------------------------- *)
  (* Flat exchange form: the engine's plan as bare int vectors, for the
     MPSZ container (Zcodec).  [flatten] exposes the live arrays (the
     caller copies them out when serializing); [of_flat] wraps existing
     vectors — typically zero-copy sub-views of a file mapping —
     after validating every shape invariant the query kernel relies on
     for memory safety, so a crafted or damaged file can make queries
     {e wrong} at worst (the CRCs catch that), never out-of-bounds. *)

  type flat = {
    f_capacity : int;
    f_words_per_set : int;
    f_skipped_rows : int;
    f_row_axis : ints;
    f_row_off : ints;
    f_lows : ints;
    f_highs : ints;
    f_set_words : ints;
    f_dom_lo : ints;
    f_dom_hi : ints;
    f_box_lo : ints;
    f_box_hi : ints;
    f_box_in_domain : ints;
  }

  let flatten t =
    {
      f_capacity = t.capacity;
      f_words_per_set = t.words_per_set;
      f_skipped_rows = t.skipped_rows;
      f_row_axis = t.row_axis;
      f_row_off = t.row_off;
      f_lows = t.lows;
      f_highs = t.highs;
      f_set_words = t.set_words;
      f_dom_lo = t.dom_lo;
      f_dom_hi = t.dom_hi;
      f_box_lo = t.box_lo;
      f_box_hi = t.box_hi;
      f_box_in_domain = t.box_in_domain;
    }

  let of_flat ~circuit ~stored ~backup ~die f =
    let fail fmt = Printf.ksprintf invalid_arg ("Engine.of_flat: " ^^ fmt) in
    let dim = Bigarray.Array1.dim in
    let n_blocks = Circuit.n_blocks circuit in
    let capacity = f.f_capacity in
    if capacity <= 0 || capacity <> Array.length stored then
      fail "capacity %d vs %d stored placements" capacity (Array.length stored);
    Array.iter
      (fun s -> if Stored.n_blocks s <> n_blocks then fail "stored block count mismatch")
      stored;
    if Stored.n_blocks backup <> n_blocks then fail "backup block count mismatch";
    let wps = f.f_words_per_set in
    if wps < 1 || wps < (capacity + bits_per_word - 1) / bits_per_word then
      fail "words_per_set %d too small for %d placements" wps capacity;
    let n_rows = dim f.f_row_axis in
    if dim f.f_row_off <> n_rows + 1 then
      fail "row_off length %d for %d rows" (dim f.f_row_off) n_rows;
    if dim f.f_lows <> dim f.f_highs then fail "lows/highs length mismatch";
    let n_intervals = if n_rows = 0 then 0 else f.f_row_off.{n_rows} in
    if n_intervals > dim f.f_lows then fail "row offsets exceed the interval table";
    if dim f.f_set_words < n_intervals * wps then fail "set-word table too short";
    let prev = ref 0 in
    let row_of_code = Array.make (2 * n_blocks) (-1) in
    for r = 0 to n_rows - 1 do
      let code = f.f_row_axis.{r} in
      if code < 0 || code >= 2 * n_blocks then fail "axis code %d out of range" code;
      if row_of_code.(code) >= 0 then fail "axis code %d in two rows" code;
      row_of_code.(code) <- r;
      let off = f.f_row_off.{r} and stop = f.f_row_off.{r + 1} in
      if off <> !prev || stop < off then fail "non-contiguous row offsets";
      prev := stop;
      for k = off + 1 to stop - 1 do
        if f.f_lows.{k - 1} > f.f_lows.{k} then fail "unsorted interval row"
      done
    done;
    if dim f.f_dom_lo <> 2 * n_blocks || dim f.f_dom_hi <> 2 * n_blocks then
      fail "domain table length mismatch";
    let space = Circuit.dim_bounds circuit in
    let dom_lo = Array.make (2 * n_blocks) 0 and dom_hi = Array.make (2 * n_blocks) 0 in
    Dimbox.flatten_into space ~lo:dom_lo ~hi:dom_hi ~base:0;
    for j = 0 to (2 * n_blocks) - 1 do
      if f.f_dom_lo.{j} <> dom_lo.(j) || f.f_dom_hi.{j} <> dom_hi.(j) then
        fail "domain bounds disagree with the circuit"
    done;
    if dim f.f_box_lo <> capacity * 2 * n_blocks || dim f.f_box_hi <> capacity * 2 * n_blocks
    then fail "box table length mismatch";
    if dim f.f_box_in_domain <> capacity then fail "box_in_domain length mismatch";
    let die_w, die_h = die in
    let exp_lo, exp_hi =
      flatten_boxes stored ~stride:(2 * n_blocks) (fun s -> s.Stored.expansion)
    in
    {
      circuit;
      stored = Array.copy stored;
      backup;
      backup_order = order_of backup;
      repack_orders = Array.map order_of stored;
      space;
      die_w;
      die_h;
      n_blocks;
      capacity;
      words_per_set = wps;
      tail_mask = tail_mask_of capacity;
      n_rows;
      lows_len = usable_intervals ~lows:f.f_lows ~set_words:f.f_set_words ~words_per_set:wps;
      row_axis = f.f_row_axis;
      row_off = f.f_row_off;
      row_of_code;
      lows = f.f_lows;
      highs = f.f_highs;
      set_words = f.f_set_words;
      skipped_rows = f.f_skipped_rows;
      dom_lo = f.f_dom_lo;
      dom_hi = f.f_dom_hi;
      box_lo = f.f_box_lo;
      box_hi = f.f_box_hi;
      box_in_domain = f.f_box_in_domain;
      exp_lo;
      exp_hi;
      checked = false;
    }
end

(* Every answer below goes through the engine on a fresh session; the
   only other query implementation is the linear oracle. *)

let query t dims = Engine.query t (Engine.new_session ()) dims
let instantiate t dims = Engine.instantiate t (Engine.new_session ()) dims

let instantiate_cost t dims = Engine.instantiate_cost t (Engine.new_session ()) dims

let query_linear t dims =
  if Dims.n_blocks dims <> Circuit.n_blocks t.circuit then
    invalid_arg "Structure.query_linear: block count mismatch";
  if not (Circuit.dims_valid t.circuit dims) then (Out_of_domain, t.backup)
  else
  let n = Array.length t.stored in
  let rec scan id =
    if id >= n then (Fallback, t.backup)
    else if Dimbox.contains t.stored.(id).Stored.box dims then
      (Stored_placement id, t.stored.(id))
    else scan (id + 1)
  in
  scan 0

(* L1 distance from a vector to a box: sum over axes of the distance to
   the axis interval. *)
let box_distance box dims =
  let n = Dimbox.n_blocks box in
  let axis_distance iv v =
    let lo = Interval.lo iv and hi = Interval.hi iv in
    if v < lo then lo - v else if v > hi then v - hi else 0
  in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + axis_distance (Dimbox.w_interval box i) (Dims.width dims i);
    acc := !acc + axis_distance (Dimbox.h_interval box i) (Dims.height dims i)
  done;
  !acc

let nearest t dims =
  if Dims.n_blocks dims <> Circuit.n_blocks t.circuit then
    invalid_arg "Structure.nearest: block count mismatch";
  let best = ref 0 and best_d = ref max_int in
  Array.iteri
    (fun id s ->
      let d = box_distance s.Stored.box dims in
      if
        d < !best_d
        || (d = !best_d && s.Stored.best_cost < t.stored.(!best).Stored.best_cost)
      then begin
        best := id;
        best_d := d
      end)
    t.stored;
  !best

let instantiate_nearest t dims =
  match Engine.query_id t (Engine.new_session ()) dims with
  | id when id >= 0 -> Stored.instantiate_auto t.stored.(id) dims
  | _ -> Stored.instantiate_repacked t.stored.(nearest t dims) dims

let to_builder t =
  let builder = Builder.create t.circuit in
  Array.iter (fun s -> ignore (Builder.resolve_and_store builder s)) t.stored;
  builder
