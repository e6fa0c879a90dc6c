(* Tests for the incremental (delta) cost engine: totals must track the
   from-scratch evaluator through arbitrary move / swap / resize
   sequences with interleaved undo, on every Table 1 circuit. *)

open Mps_geometry
open Mps_netlist
open Mps_cost
open Mps_rng
open Mps_placement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let random_rects rng circuit ~die_w ~die_h =
  let bounds = Circuit.dim_bounds circuit in
  Array.init (Circuit.n_blocks circuit) (fun i ->
      let wiv = Dimbox.w_interval bounds i and hiv = Dimbox.h_interval bounds i in
      let w = Rng.int_in rng (Interval.lo wiv) (Interval.hi wiv) in
      let h = Rng.int_in rng (Interval.lo hiv) (Interval.hi hiv) in
      Rect.make ~x:(Rng.int_in rng 0 (max 0 (die_w - w)))
        ~y:(Rng.int_in rng 0 (max 0 (die_h - h)))
        ~w ~h)

let make_engine ?resync_every circuit rng =
  let die_w, die_h = Circuit.default_die circuit in
  let rects = random_rects rng circuit ~die_w ~die_h in
  (Incremental.create ?resync_every circuit ~die_w ~die_h rects, rects, die_w, die_h)

(* --- unit tests ------------------------------------------------------ *)

let test_initial_matches_evaluate () =
  List.iter
    (fun circuit ->
      let rng = Rng.create ~seed:11 in
      let eng, rects, die_w, die_h = make_engine circuit rng in
      let reference = Cost.evaluate circuit ~die_w ~die_h rects in
      check_float circuit.Circuit.name reference.Cost.total (Incremental.total eng);
      let b = Incremental.breakdown eng in
      check_int "bbox" reference.Cost.bbox_area b.Cost.bbox_area;
      check_int "overlap" reference.Cost.overlap_area b.Cost.overlap_area;
      check_int "oob" reference.Cost.oob_area b.Cost.oob_area;
      check_float "hpwl" reference.Cost.hpwl b.Cost.hpwl)
    Benchmarks.all

let test_staged_then_undo_restores () =
  let circuit = Benchmarks.circ06 in
  let rng = Rng.create ~seed:3 in
  let eng, rects, die_w, die_h = make_engine circuit rng in
  let before = Incremental.total eng in
  Incremental.move_block eng 0 ~x:1 ~y:2;
  Incremental.resize_block eng 1 ~w:9 ~h:7;
  Incremental.swap_blocks eng 0 2;
  check_bool "staged ops pending" true (Incremental.pending eng > 0);
  Incremental.undo eng;
  check_int "nothing pending" 0 (Incremental.pending eng);
  check_float "total restored" before (Incremental.total eng);
  Array.iteri
    (fun i r ->
      check_bool "rect restored" true (Rect.equal r (Incremental.rects eng).(i)))
    rects;
  ignore die_w;
  ignore die_h

let test_commit_keeps_staged_state () =
  let circuit = Benchmarks.circ01 in
  let rng = Rng.create ~seed:4 in
  let eng, _, die_w, die_h = make_engine circuit rng in
  Incremental.move_block eng 0 ~x:3 ~y:5;
  let staged = Incremental.total eng in
  Incremental.commit eng;
  check_float "commit keeps the staged total" staged (Incremental.total eng);
  let reference = Cost.total circuit ~die_w ~die_h (Incremental.rects eng) in
  check_float "matches evaluator" reference (Incremental.total eng)

let test_swap_is_clamped_and_self_noop () =
  let circuit = Benchmarks.circ01 in
  let rng = Rng.create ~seed:5 in
  let eng, _, die_w, die_h = make_engine circuit rng in
  let x0 = Incremental.block_x eng 0 and y0 = Incremental.block_y eng 0 in
  Incremental.swap_blocks eng 0 0;
  check_int "self-swap stages nothing" 0 (Incremental.pending eng);
  Incremental.swap_blocks eng 0 1;
  List.iter
    (fun i ->
      check_bool "x clamped" true
        (Incremental.block_x eng i >= 0
        && Incremental.block_x eng i + Incremental.block_w eng i <= die_w);
      check_bool "y clamped" true
        (Incremental.block_y eng i >= 0
        && Incremental.block_y eng i + Incremental.block_h eng i <= die_h))
    [ 0; 1 ];
  Incremental.undo eng;
  check_int "x restored" x0 (Incremental.block_x eng 0);
  check_int "y restored" y0 (Incremental.block_y eng 0)

let test_batch_mode () =
  let circuit = Benchmarks.benchmark24 in
  let rng = Rng.create ~seed:6 in
  let eng, _, die_w, die_h = make_engine circuit rng in
  let before = Incremental.total eng in
  Incremental.begin_batch eng;
  for i = 0 to 14 do
    Incremental.resize_block eng i ~w:(10 + i) ~h:(12 + i)
  done;
  Incremental.end_batch eng;
  let reference = Cost.total circuit ~die_w ~die_h (Incremental.rects eng) in
  check_float "batched state matches evaluator" reference (Incremental.total eng);
  Incremental.undo eng;
  check_float "batched group undone whole" before (Incremental.total eng)

let test_argument_errors () =
  let circuit = Benchmarks.circ01 in
  let rng = Rng.create ~seed:7 in
  let eng, _, _, _ = make_engine circuit rng in
  let n = Incremental.n_blocks eng in
  Alcotest.check_raises "bad index"
    (Invalid_argument (Printf.sprintf "Incremental.move_block: block %d out of [0, %d)" n n))
    (fun () -> Incremental.move_block eng n ~x:0 ~y:0);
  Alcotest.check_raises "bad size"
    (Invalid_argument "Incremental.resize_block: non-positive size 0x3") (fun () ->
      Incremental.resize_block eng 0 ~w:0 ~h:3);
  Alcotest.check_raises "no batch open"
    (Invalid_argument "Incremental.end_batch: no batch open") (fun () ->
      Incremental.end_batch eng);
  Incremental.begin_batch eng;
  Alcotest.check_raises "batch already open"
    (Invalid_argument "Incremental.begin_batch: batch already open") (fun () ->
      Incremental.begin_batch eng);
  Alcotest.check_raises "undo inside batch"
    (Invalid_argument "Incremental.undo: close the open batch first") (fun () ->
      Incremental.undo eng);
  Incremental.end_batch eng;
  Incremental.undo eng

(* --- the agreement property ------------------------------------------ *)

(* Replay the engine's op stream on a plain rect array (including the
   swap clamping) so [Cost.evaluate] can referee every step. *)
let clamp v lo hi = max lo (min v hi)

let apply_random_op rng eng mirror ~die_w ~die_h =
  let n = Array.length mirror in
  let i = Rng.int_in rng 0 (n - 1) in
  match Rng.int_in rng 0 2 with
  | 0 ->
    (* raw move, deliberately sometimes out of die *)
    let x = Rng.int_in rng (-10) (die_w + 10) and y = Rng.int_in rng (-10) (die_h + 10) in
    Incremental.move_block eng i ~x ~y;
    mirror.(i) <- Rect.make ~x ~y ~w:mirror.(i).Rect.w ~h:mirror.(i).Rect.h
  | 1 ->
    let w = Rng.int_in rng 1 (max 2 (die_w / 2)) in
    let h = Rng.int_in rng 1 (max 2 (die_h / 2)) in
    Incremental.resize_block eng i ~w ~h;
    mirror.(i) <- Rect.make ~x:mirror.(i).Rect.x ~y:mirror.(i).Rect.y ~w ~h
  | _ ->
    let j = Rng.int_in rng 0 (n - 1) in
    Incremental.swap_blocks eng i j;
    if i <> j then begin
      let ri = mirror.(i) and rj = mirror.(j) in
      mirror.(i) <-
        Rect.make
          ~x:(clamp rj.Rect.x 0 (die_w - ri.Rect.w))
          ~y:(clamp rj.Rect.y 0 (die_h - ri.Rect.h))
          ~w:ri.Rect.w ~h:ri.Rect.h;
      mirror.(j) <-
        Rect.make
          ~x:(clamp ri.Rect.x 0 (die_w - rj.Rect.w))
          ~y:(clamp ri.Rect.y 0 (die_h - rj.Rect.h))
          ~w:rj.Rect.w ~h:rj.Rect.h
    end

let agreement_run circuit ~seed ~steps =
  let rng = Rng.create ~seed in
  (* a small resync_every so the periodic resync itself is exercised *)
  let eng, rects, die_w, die_h = make_engine ~resync_every:13 circuit rng in
  let mirror = Array.copy rects in
  let ok = ref true in
  let agree label =
    let reference = (Cost.evaluate circuit ~die_w ~die_h mirror).Cost.total in
    let drift = abs_float (reference -. Incremental.total eng) in
    if drift > 1e-6 then begin
      Printf.printf "%s %s: drift %g\n" circuit.Circuit.name label drift;
      ok := false
    end
  in
  for _ = 1 to steps do
    let saved = Array.copy mirror in
    (match Rng.int_in rng 0 3 with
    | 0 ->
      (* a batched group of resizes *)
      Incremental.begin_batch eng;
      for _ = 1 to Rng.int_in rng 2 5 do
        apply_random_op rng eng mirror ~die_w ~die_h
      done;
      Incremental.end_batch eng
    | k ->
      for _ = 0 to k - 1 do
        apply_random_op rng eng mirror ~die_w ~die_h
      done);
    agree "staged";
    if Rng.bool rng then Incremental.commit eng
    else begin
      Incremental.undo eng;
      Array.blit saved 0 mirror 0 (Array.length mirror)
    end;
    agree "after commit/undo"
  done;
  (* geometry must agree exactly, and resync must land on the evaluator
     bit for bit *)
  Array.iteri
    (fun i r -> ok := !ok && Rect.equal r (Incremental.rects eng).(i))
    mirror;
  Incremental.resync eng;
  ok := !ok && (Cost.evaluate circuit ~die_w ~die_h mirror).Cost.total = Incremental.total eng;
  !ok

let prop_agrees_with_evaluator =
  QCheck.Test.make ~name:"incremental total tracks Cost.evaluate (all circuits)" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all (fun circuit -> agreement_run circuit ~seed ~steps:40) Benchmarks.all)

(* --- overlap-free mode ------------------------------------------------ *)

(* The generator evaluates two kinds of floorplan in overlap-free mode:
   a placement at dims inside its expansion box (BDIO and the admission
   candidate) and a re-pack (the admission backup side and the template
   average).  Both are overlap-free by construction, so the mode's total
   must equal [Cost.total] bit for bit — not within a tolerance. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let overlap_free_run circuit ~seed =
  let rng = Rng.create ~seed in
  let die_w, die_h = Circuit.default_die circuit in
  let placement = Placement.random rng circuit ~die_w ~die_h in
  let expansion = Expand.expand circuit placement in
  let bounds = Circuit.dim_bounds circuit in
  let coords = placement.Placement.coords in
  let arena = Arena.create () in
  let probe rects =
    let eng = Arena.engine ~overlap_free:true arena circuit ~die_w ~die_h rects in
    same_bits (Cost.total circuit ~die_w ~die_h rects) (Incremental.total eng)
  in
  let ok = ref true in
  for _ = 1 to 8 do
    let inside = Placement.rects placement (Dimbox.random_dims rng expansion) in
    let repacked =
      Repack.instantiate ~die:(die_w, die_h) ~coords (Dimbox.random_dims rng bounds)
    in
    ok := !ok && probe inside && probe repacked
  done;
  (* BDIO-style resizes inside the box, one block at a time and as a
     batch, keep the integer terms exact and resync onto the bits *)
  let eng =
    Arena.engine ~overlap_free:true arena circuit ~die_w ~die_h
      (Placement.rects placement (Dimbox.random_dims rng expansion))
  in
  let redraw i =
    let d = Dimbox.random_dims rng expansion in
    Incremental.resize_block eng i ~w:(Dims.width d i) ~h:(Dims.height d i)
  in
  let n = Circuit.n_blocks circuit in
  for step = 1 to 12 do
    if step mod 3 = 0 then begin
      Incremental.begin_batch eng;
      for i = 0 to n - 1 do
        if Rng.bool rng then redraw i
      done;
      Incremental.end_batch eng
    end
    else redraw (Rng.int rng n);
    let rects = Incremental.rects eng in
    let reference = Cost.evaluate circuit ~die_w ~die_h rects in
    let b = Incremental.breakdown eng in
    ok :=
      !ok && b.Cost.overlap_area = reference.Cost.overlap_area
      && b.Cost.oob_area = reference.Cost.oob_area
      && abs_float (b.Cost.total -. reference.Cost.total) <= 1e-6;
    if Rng.bool rng then Incremental.commit eng else Incremental.undo eng
  done;
  Incremental.resync eng;
  let rects = Incremental.rects eng in
  !ok && same_bits (Cost.total circuit ~die_w ~die_h rects) (Incremental.total eng)

let prop_overlap_free_bit_equal =
  QCheck.Test.make
    ~name:"overlap-free totals are bit-equal to Cost.total (all circuits)" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all (fun circuit -> overlap_free_run circuit ~seed) Benchmarks.all)

(* --- exactness against the reference engine ---------------------------- *)

(* [Incremental_ref] is the engine before the undo log, the dirty-net
   batches and the two-pin shortcut: every undo re-ran the pair loop and
   every batch closed with a full [resync].  Both engines take the same
   random stream of moves, swaps, resizes, batches, undos, commits and
   resets, in both modes, and must agree to the bit on the total and on
   every term after each operation outside an open batch (inside one
   the caches are unspecified until [end_batch]).  A small
   [resync_every] brings the periodic resync into play, and staged
   groups of every size reach both undo paths. *)
module Ref = Incremental_ref

let bits = Int64.bits_of_float

let same_breakdown (a : Cost.breakdown) (b : Cost.breakdown) =
  Int64.equal (bits a.Cost.total) (bits b.Cost.total)
  && Int64.equal (bits a.Cost.hpwl) (bits b.Cost.hpwl)
  && Int64.equal (bits a.Cost.symmetry_misalign) (bits b.Cost.symmetry_misalign)
  && a.Cost.bbox_area = b.Cost.bbox_area
  && a.Cost.overlap_area = b.Cost.overlap_area
  && a.Cost.oob_area = b.Cost.oob_area

let reference_run circuit ~seed ~overlap_free ~steps =
  let rng = Rng.create ~seed in
  let die_w, die_h = Circuit.default_die circuit in
  let n = Circuit.n_blocks circuit in
  let resync_every = Rng.int_in rng 3 40 in
  let rects = random_rects rng circuit ~die_w ~die_h in
  let eng = Incremental.create ~resync_every circuit ~die_w ~die_h rects in
  let oracle = Ref.create ~resync_every circuit ~die_w ~die_h rects in
  Incremental.reset ~overlap_free eng rects;
  Ref.reset ~overlap_free oracle rects;
  let ok = ref true and batching = ref false in
  let agree step label =
    if not (same_breakdown (Incremental.breakdown eng) (Ref.breakdown oracle)) then begin
      if !ok then
        Printf.printf "%s (overlap_free %b, seed %d) step %d, after %s: %.17g vs %.17g\n"
          circuit.Circuit.name overlap_free seed step label (Incremental.total eng)
          (Ref.total oracle);
      ok := false
    end
  in
  for step = 1 to steps do
    let i = Rng.int rng n in
    let label =
      match Rng.int rng 10 with
      | 0 | 1 | 2 ->
        let x = Rng.int_in rng (-5) (die_w + 5) and y = Rng.int_in rng (-5) (die_h + 5) in
        Incremental.move_block eng i ~x ~y;
        Ref.move_block oracle i ~x ~y;
        "move"
      | 3 ->
        let j = Rng.int rng n in
        Incremental.swap_blocks eng i j;
        Ref.swap_blocks oracle i j;
        "swap"
      | 4 | 5 ->
        let w = Rng.int_in rng 1 (max 2 (die_w / 3)) in
        let h = Rng.int_in rng 1 (max 2 (die_h / 3)) in
        Incremental.resize_block eng i ~w ~h;
        Ref.resize_block oracle i ~w ~h;
        "resize"
      | 6 ->
        if !batching then begin
          Incremental.end_batch eng;
          Ref.end_batch oracle
        end
        else begin
          Incremental.begin_batch eng;
          Ref.begin_batch oracle
        end;
        batching := not !batching;
        "batch"
      | 7 when not !batching ->
        Incremental.undo eng;
        Ref.undo oracle;
        "undo"
      | 8 when not !batching ->
        Incremental.commit eng;
        Ref.commit oracle;
        "commit"
      | 9 when (not !batching) && Rng.int rng 4 = 0 ->
        let rects = random_rects rng circuit ~die_w ~die_h in
        Incremental.reset ~overlap_free eng rects;
        Ref.reset ~overlap_free oracle rects;
        "reset"
      | _ -> "nothing"
    in
    if not !batching then agree step label
  done;
  if !batching then begin
    Incremental.end_batch eng;
    Ref.end_batch oracle
  end;
  agree steps "the last batch";
  Incremental.undo eng;
  Ref.undo oracle;
  agree steps "the last undo";
  Array.iteri
    (fun i r -> ok := !ok && Rect.equal r (Incremental.rects eng).(i))
    (Ref.rects oracle);
  !ok

let prop_matches_reference =
  QCheck.Test.make
    ~name:"bit-equal to the reference engine under random op streams (all circuits)"
    ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun circuit ->
          List.for_all
            (fun overlap_free -> reference_run circuit ~seed ~overlap_free ~steps:300)
            [ false; true ])
        Benchmarks.all)

(* A rejected refine move — a move or a swap, read, undone — allocates
   nothing: the undo restores logged values and the HPWL total lives
   in a flat float cell. *)
let test_rejected_move_allocation () =
  let circuit = Benchmarks.benchmark24 in
  let die_w, die_h = Circuit.default_die circuit in
  let rng = Rng.create ~seed:21 in
  let eng = Incremental.create circuit ~die_w ~die_h (random_rects rng circuit ~die_w ~die_h) in
  let n = Circuit.n_blocks circuit in
  let moves = Array.init 3000 (fun _ -> Rng.int rng 1_000_000) in
  let sink = ref 0 in
  let run k =
    for m = 0 to k - 1 do
      let v = moves.(m) in
      let i = v mod n in
      if v land 3 = 0 then Incremental.swap_blocks eng i ((i + 1 + (v / 7 mod (n - 1))) mod n)
      else Incremental.move_block eng i ~x:(v / 5 mod die_w) ~y:(v / 11 mod die_h);
      sink := !sink + Incremental.pending eng;
      Incremental.undo eng
    done
  in
  run 100;
  let before = Gc.minor_words () in
  run 3000;
  let delta = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  check_bool (Printf.sprintf "3000 rejected moves allocated %.0f minor words" delta) true
    (delta = 0.0)

(* One arena probe — rebind the cached engine, read the total — costs a
   constant few minor words whatever the net count: no boxed float per
   net.  Measured on benchmark24 (48 nets) and circ01 (4 nets). *)
let test_probe_allocation () =
  let words circuit ~overlap_free =
    let die_w, die_h = Circuit.default_die circuit in
    let placement = Placement.random (Rng.create ~seed:9) circuit ~die_w ~die_h in
    let rects = Placement.rects placement (Circuit.min_dims circuit) in
    let arena = Arena.create () in
    (* built once: wrapping the flag per call would allocate the [Some] *)
    let overlap_free = Some overlap_free in
    let probe () =
      ignore
        (Sys.opaque_identity
           (Incremental.total
              (Arena.engine ?overlap_free arena circuit ~die_w ~die_h rects)))
    in
    let run k =
      let before = Gc.minor_words () in
      for _ = 1 to k do
        probe ()
      done;
      Gc.minor_words () -. before
    in
    probe ();
    (run 1100 -. run 100) /. 1000.0
  in
  List.iter
    (fun overlap_free ->
      let big = words Benchmarks.benchmark24 ~overlap_free in
      let small = words Benchmarks.circ01 ~overlap_free in
      check_bool
        (Printf.sprintf "probe words: benchmark24 %.1f, circ01 %.1f (overlap_free %b)" big
           small overlap_free)
        true
        (big <= 4.0 && small <= 4.0))
    [ false; true ]

let suite =
  [
    ("initial totals match the evaluator", `Quick, test_initial_matches_evaluate);
    ("staged ops undo to the original state", `Quick, test_staged_then_undo_restores);
    ("commit keeps the staged state", `Quick, test_commit_keeps_staged_state);
    ("swap clamps into the die; self-swap no-op", `Quick, test_swap_is_clamped_and_self_noop);
    ("batch mode matches the evaluator", `Quick, test_batch_mode);
    ("argument errors", `Quick, test_argument_errors);
    ("an arena probe allocates a constant few words", `Quick, test_probe_allocation);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_agrees_with_evaluator; prop_overlap_free_bit_equal; prop_matches_reference ]
  @ [ ("a rejected move allocates nothing", `Quick, test_rejected_move_allocation) ]
