(* The rows of the multi-placement structure (paper Fig. 3) as the
   compiled plan holds them, and the builder's overlap search (the
   rows' range query of the paper's Resolve Overlaps).  The plan
   is built by an endpoint sweep per axis; these tests read it back
   through [Engine.flatten] and hold it to a naive model: each row is
   canonical (ascending, disjoint, non-empty, no mergeable neighbours)
   and maps every value to exactly the placements whose interval on that
   axis contains it.  [Builder.overlapping] is checked against pairwise
   [Dimbox.overlaps] the same way. *)

open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_core

let iv = Interval.make

(* An [n]-block circuit whose blocks range over 1..60 on both axes. *)
let circuit n =
  Circuit.make ~name:(Printf.sprintf "blocks%d" n)
    ~blocks:
      (Array.init n (fun id ->
           Block.make_wh ~id ~name:(Printf.sprintf "b%d" id) ~w:(1, 60) ~h:(1, 60)))
    ~nets:[| Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin 0; Net.pad ~px:0.0 ~py:0.0 ] |]

let stored ?(avg = 10.0) box =
  let n = Dimbox.n_blocks box in
  Stored.make ~template_like:false
    ~placement:
      (Placement.make ~coords:(Array.init n (fun i -> (70 * i, 0))) ~die_w:400 ~die_h:200)
    ~box ~expansion:(Circuit.dim_bounds (circuit n)) ~avg_cost:avg ~best_cost:(avg /. 2.0)
    ~best_dims:(Dimbox.center box)

(* The plan's rows by axis code: [(lo, hi, ids)] per interval object,
   ascending; codes the skip rule dropped are absent. *)
let plan_rows structure =
  let f = Structure.Engine.flatten (Structure.Engine.create structure) in
  let open Structure.Engine in
  let wps = f.f_words_per_set in
  let ids k =
    List.filter
      (fun id ->
        let word = f.f_set_words.{(k * wps) + (id / Sys.int_size)} in
        word land (1 lsl (id mod Sys.int_size)) <> 0)
      (List.init f.f_capacity Fun.id)
  in
  List.init
    (Bigarray.Array1.dim f.f_row_axis)
    (fun r ->
      ( f.f_row_axis.{r},
        List.init
          (f.f_row_off.{r + 1} - f.f_row_off.{r})
          (fun j ->
            let k = f.f_row_off.{r} + j in
            (f.f_lows.{k}, f.f_highs.{k}, ids k)) ))

(* ---- the sweep on hand-built rows -------------------------------------- *)

(* One-block placements: [w] is the width interval under test, and a
   distinct height band per placement keeps the boxes disjoint (eq. 5). *)
let width_row ws =
  let boxes =
    List.mapi (fun k w -> Dimbox.make ~w:[| w |] ~h:[| iv ((6 * k) + 1) ((6 * k) + 5) |]) ws
  in
  let s = Structure.of_placements (circuit 1) (Array.of_list (List.map stored boxes)) in
  match List.assoc_opt 0 (plan_rows s) with
  | Some objects -> objects
  | None -> Alcotest.fail "width row was skipped"

let check_row name expected ws =
  Alcotest.(check (list (triple int int (list int)))) name expected (width_row ws)

(* The ids of the object holding [v], or [] in a gap. *)
let lookup objects v =
  match List.find_opt (fun (lo, hi, _) -> lo <= v && v <= hi) objects with
  | Some (_, _, s) -> s
  | None -> []

let test_single_range () =
  let objects = width_row [ iv 10 20 ] in
  Alcotest.(check (list (triple int int (list int)))) "one object" [ (10, 20, [ 0 ]) ] objects;
  List.iter
    (fun (name, v, expected) -> Alcotest.(check (list int)) name expected (lookup objects v))
    [ ("inside", 15, [ 0 ]); ("at lo", 10, [ 0 ]); ("at hi", 20, [ 0 ]); ("below", 9, []);
      ("above", 21, []) ]

let test_disjoint_ranges () =
  check_row "two objects and a gap" [ (1, 5, [ 0 ]); (10, 15, [ 1 ]) ] [ iv 1 5; iv 10 15 ]

let test_overlapping_ranges_split () =
  check_row "split at both ends"
    [ (1, 4, [ 0 ]); (5, 10, [ 0; 1 ]); (11, 15, [ 1 ]) ]
    [ iv 1 10; iv 5 15 ]

let test_nested_range () =
  check_row "nested"
    [ (1, 7, [ 0 ]); (8, 12, [ 0; 1 ]); (13, 20, [ 0 ]) ]
    [ iv 1 20; iv 8 12 ]

let test_range_covering_several () =
  check_row "a range over two objects and the gap between"
    [ (1, 1, [ 0 ]); (2, 4, [ 0; 2 ]); (5, 9, [ 2 ]); (10, 12, [ 1; 2 ]); (13, 14, [ 1 ]) ]
    [ iv 1 4; iv 10 14; iv 2 12 ]

let test_same_range_twice () =
  check_row "single object" [ (3, 9, [ 0; 1 ]) ] [ iv 3 9; iv 3 9 ]

(* Every placement has an interval on every axis, so each kept row
   carries every placement somewhere. *)
let test_ids () =
  let boxes =
    [ Dimbox.make ~w:[| iv 1 4 |] ~h:[| iv 1 5 |]; Dimbox.make ~w:[| iv 10 14 |] ~h:[| iv 7 11 |];
      Dimbox.make ~w:[| iv 2 12 |] ~h:[| iv 13 17 |] ]
  in
  let s = Structure.of_placements (circuit 1) (Array.of_list (List.map stored boxes)) in
  let rows = plan_rows s in
  Alcotest.(check (list int)) "both axes kept" [ 0; 1 ] (List.sort Int.compare (List.map fst rows));
  List.iter
    (fun (code, objects) ->
      Alcotest.(check (list int))
        (Printf.sprintf "ids of row %d" code)
        [ 0; 1; 2 ]
        (List.sort_uniq Int.compare (List.concat_map (fun (_, _, ids) -> ids) objects)))
    rows

(* ---- random placement sets against the naive model ----------------------- *)

let box_gen n =
  QCheck.Gen.(
    let ivl =
      map2 (fun lo len -> iv lo (min 60 (lo + len))) (int_range 1 58) (int_range 0 30)
    in
    let* w = array_repeat n ivl and* h = array_repeat n ivl in
    return (Dimbox.make ~w ~h))

(* A block count and a candidate sequence, long enough to push the
   builder past its initial 16 slots. *)
let arb_workload =
  QCheck.make
    ~print:(fun (n, l) ->
      Printf.sprintf "%d blocks: %s" n
        (String.concat "; "
           (List.map (fun (b, a) -> Format.asprintf "%a @@%.1f" Dimbox.pp b a) l)))
    QCheck.Gen.(
      let* n = int_range 1 3 in
      let* l = list_size (int_range 1 40) (pair (box_gen n) (float_range 1.0 50.0)) in
      return (n, l))

let build (n, workload) =
  let b = Builder.create (circuit n) in
  List.iter (fun (box, avg) -> ignore (Builder.resolve_and_store b (stored ~avg box))) workload;
  b

let axis_interval box code =
  if code land 1 = 0 then Dimbox.w_interval box (code / 2) else Dimbox.h_interval box (code / 2)

let canonical objects =
  let rec ok = function
    | (_, hi1, s1) :: ((lo2, _, s2) :: _ as rest) ->
      hi1 < lo2 && not (hi1 + 1 = lo2 && s1 = s2) && ok rest
    | _ -> true
  in
  List.for_all (fun (lo, hi, s) -> lo <= hi && s <> []) objects && ok objects

let prop_row_invariants =
  QCheck.Test.make ~name:"row invariants hold under random ops" ~count:200 arb_workload
    (fun w ->
      List.for_all
        (fun (_, objects) -> canonical objects)
        (plan_rows (Structure.compile (build w))))

let prop_row_matches_model =
  QCheck.Test.make ~name:"row find matches naive model" ~count:200 arb_workload
    (fun ((n, _) as w) ->
      let structure = Structure.compile (build w) in
      let boxes = Array.map (fun s -> s.Stored.box) (Structure.placements structure) in
      let rows = plan_rows structure in
      let naive code v =
        List.filter
          (fun id -> Interval.contains (axis_interval boxes.(id) code) v)
          (List.init (Array.length boxes) Fun.id)
      in
      let all = List.init (Array.length boxes) Fun.id in
      List.for_all
        (fun code ->
          match List.assoc_opt code rows with
          | Some objects ->
            List.for_all (fun v -> lookup objects v = naive code v) (List.init 64 Fun.id)
          (* a skipped row maps every in-domain value to every placement *)
          | None -> List.for_all (fun v -> naive code v = all) (List.init 60 (fun v -> v + 1)))
        (List.init (2 * n) Fun.id))

(* ---- Builder.overlapping against pairwise Dimbox.overlaps ---------------- *)

let naive_overlapping b probe =
  List.filter_map
    (fun (id, s) -> if Dimbox.overlaps s.Stored.box probe then Some id else None)
    (Builder.live b)

let agrees b probe =
  let expected = naive_overlapping b probe in
  Builder.overlapping b probe = expected
  && Builder.overlapping_any b probe = (match expected with id :: _ -> id | [] -> -1)

(* A builder holding nothing finds nothing, and an empty placement set
   has no plan to sweep. *)
let test_empty () =
  let b = Builder.create (circuit 1) in
  let probe = Dimbox.make ~w:[| iv 1 60 |] ~h:[| iv 1 60 |] in
  Alcotest.(check (list int)) "overlapping" [] (Builder.overlapping b probe);
  Alcotest.(check int) "overlapping_any" (-1) (Builder.overlapping_any b probe);
  Alcotest.check_raises "no plan" (Invalid_argument "Structure.of_placements: no placements")
    (fun () -> ignore (Structure.of_placements (circuit 1) [||]))

(* A one-block box spanning the whole height, [w] on the width axis. *)
let width_box w = Dimbox.make ~w:[| w |] ~h:[| iv 1 60 |]

(* The range search unions every stored interval the range meets. *)
let test_find_range_union () =
  let b = Builder.create (circuit 1) in
  List.iter
    (fun w -> ignore (Builder.resolve_and_store b (stored (width_box w))))
    [ iv 1 5; iv 10 15 ];
  List.iter
    (fun (name, w, expected) ->
      Alcotest.(check (list int)) name expected (Builder.overlapping b (width_box w)))
    [ ("spanning both", iv 4 11, [ 0; 1 ]); ("only gap", iv 6 9, []);
      ("touching first", iv 5 8, [ 0 ]); ("everything", iv 1 60, [ 0; 1 ]) ]

(* A probe ranging over [lo, hi] on axis [code] and everything elsewhere. *)
let range_probe n code lo hi =
  let axis c = if c = code then iv lo hi else iv 1 60 in
  Dimbox.make
    ~w:(Array.init n (fun i -> axis (2 * i)))
    ~h:(Array.init n (fun i -> axis ((2 * i) + 1)))

let prop_find_range_is_union =
  QCheck.Test.make ~name:"find_range equals union of finds" ~count:150
    (QCheck.pair arb_workload
       (QCheck.triple (QCheck.int_range 0 5) (QCheck.int_range 1 60) (QCheck.int_range 0 25)))
    (fun (((n, _) as w), (code, lo, len)) ->
      let b = build w in
      let code = code mod (2 * n) and hi = min 60 (lo + len) in
      let union =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun v -> Builder.overlapping b (range_probe n code v v))
             (List.init (hi - lo + 1) (fun k -> lo + k)))
      in
      Builder.overlapping b (range_probe n code lo hi) = union)

(* After every store (resolution inserts and removes slots), random
   probes and every live box see the same overlaps as the naive scan. *)
let prop_overlapping_matches_pairwise =
  QCheck.Test.make ~name:"Builder.overlapping equals pairwise Dimbox.overlaps" ~count:150
    (QCheck.pair arb_workload (QCheck.make QCheck.Gen.(list_size (return 8) (box_gen 3))))
    (fun ((n, workload), probes) ->
      let b = Builder.create (circuit n) in
      let probes =
        List.map
          (fun p ->
            Dimbox.make
              ~w:(Array.init n (Dimbox.w_interval p))
              ~h:(Array.init n (Dimbox.h_interval p)))
          probes
      in
      List.for_all
        (fun (box, avg) ->
          ignore (Builder.resolve_and_store b (stored ~avg box));
          Builder.bounds_consistent b
          && List.for_all (agrees b) probes
          && List.for_all (fun (_, s) -> agrees b s.Stored.box) (Builder.live b))
        workload)

(* Forty disjoint columns: slots grow twice past the initial 16, and
   every column is still found by its own box and by a probe through
   its middle. *)
let columns () =
  let b = Builder.create (circuit 1) in
  List.iter
    (fun k ->
      let column = Dimbox.make ~w:[| iv (k + 1) (k + 1) |] ~h:[| iv 1 60 |] in
      ignore (Builder.resolve_and_store b (stored column)))
    (List.init 40 Fun.id);
  b

let test_overlapping_past_resize () =
  let b = columns () in
  Alcotest.(check int) "forty live" 40 (Builder.n_live b);
  Alcotest.(check bool) "bounds consistent" true (Builder.bounds_consistent b);
  List.iter
    (fun (id, s) ->
      Alcotest.(check (list int)) "own box" [ id ] (Builder.overlapping b s.Stored.box);
      let probe = Dimbox.make ~w:[| Dimbox.w_interval s.Stored.box 0 |] ~h:[| iv 30 30 |] in
      Alcotest.(check int) "probe" id (Builder.overlapping_any b probe))
    (Builder.live b);
  Alcotest.(check (list int))
    "a wide probe meets a run of columns" [ 9; 10; 11 ]
    (Builder.overlapping b (Dimbox.make ~w:[| iv 10 12 |] ~h:[| iv 1 1 |]))

(* The Resolve Overlaps search runs once per work item: hits and misses
   alike must not allocate. *)
let test_overlapping_any_does_not_allocate () =
  let b = columns () in
  let hit = Dimbox.make ~w:[| iv 35 36 |] ~h:[| iv 5 5 |] in
  let miss = Dimbox.make ~w:[| iv 50 60 |] ~h:[| iv 5 5 |] in
  let sink = ref 0 in
  let call i = sink := !sink + Builder.overlapping_any b (if i land 1 = 0 then hit else miss) in
  for i = 0 to 999 do
    call i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    call i
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10k calls" delta)
    true (delta < 256.0);
  ignore (Sys.opaque_identity !sink)

let suite =
  [
    Alcotest.test_case "empty row" `Quick test_empty;
    Alcotest.test_case "single range" `Quick test_single_range;
    Alcotest.test_case "disjoint ranges" `Quick test_disjoint_ranges;
    Alcotest.test_case "overlapping ranges split objects" `Quick test_overlapping_ranges_split;
    Alcotest.test_case "nested range" `Quick test_nested_range;
    Alcotest.test_case "range covering several objects and gaps" `Quick
      test_range_covering_several;
    Alcotest.test_case "identical ranges share one object" `Quick test_same_range_twice;
    Alcotest.test_case "find_range unions across objects" `Quick test_find_range_union;
    Alcotest.test_case "ids collects everything" `Quick test_ids;
    QCheck_alcotest.to_alcotest prop_row_matches_model;
    QCheck_alcotest.to_alcotest prop_row_invariants;
    QCheck_alcotest.to_alcotest prop_find_range_is_union;
    QCheck_alcotest.to_alcotest prop_overlapping_matches_pairwise;
    Alcotest.test_case "overlap search past the slot array's growth" `Quick
      test_overlapping_past_resize;
    Alcotest.test_case "overlapping_any does not allocate" `Quick
      test_overlapping_any_does_not_allocate;
  ]
