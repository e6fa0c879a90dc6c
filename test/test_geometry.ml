(* Tests for intervals, rectangles, dimension vectors and dimension boxes. *)

open Mps_geometry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let iv = Interval.make

(* Interval *)

let test_interval_basic () =
  let t = iv 3 7 in
  check_int "lo" 3 (Interval.lo t);
  check_int "hi" 7 (Interval.hi t);
  check_int "length" 5 (Interval.length t);
  check_bool "contains lo" true (Interval.contains t 3);
  check_bool "contains hi" true (Interval.contains t 7);
  check_bool "outside" false (Interval.contains t 8);
  Alcotest.check_raises "inverted" (Invalid_argument "Interval.make: 5 > 4") (fun () ->
      ignore (iv 5 4))

let test_interval_point () =
  let t = Interval.point 4 in
  check_int "length 1" 1 (Interval.length t);
  check_bool "contains" true (Interval.contains t 4)

let test_interval_overlap () =
  check_bool "disjoint" false (Interval.overlaps (iv 0 3) (iv 4 9));
  check_bool "touching" true (Interval.overlaps (iv 0 4) (iv 4 9));
  check_bool "nested" true (Interval.overlaps (iv 0 9) (iv 3 4));
  check_int "overlap length" 1 (Interval.overlap_length (iv 0 4) (iv 4 9));
  check_int "no overlap length" 0 (Interval.overlap_length (iv 0 3) (iv 5 9))

let test_interval_inter_hull () =
  (match Interval.inter (iv 0 5) (iv 3 9) with
  | Some r -> check_bool "inter" true (Interval.equal r (iv 3 5))
  | None -> Alcotest.fail "expected overlap");
  check_bool "disjoint inter" true (Interval.inter (iv 0 2) (iv 5 9) = None);
  check_bool "hull" true (Interval.equal (Interval.hull (iv 0 2) (iv 5 9)) (iv 0 9))

let test_interval_before_after_split () =
  let t = iv 3 10 in
  check_bool "before" true
    (match Interval.before t ~limit:6 with Some r -> Interval.equal r (iv 3 5) | None -> false);
  check_bool "before empty" true (Interval.before t ~limit:3 = None);
  check_bool "after" true
    (match Interval.after t ~limit:6 with Some r -> Interval.equal r (iv 7 10) | None -> false);
  check_bool "after empty" true (Interval.after t ~limit:10 = None)

let test_interval_clamp_midpoint () =
  let t = iv 3 10 in
  check_int "clamp below" 3 (Interval.clamp t 0);
  check_int "clamp above" 10 (Interval.clamp t 99);
  check_int "clamp inside" 7 (Interval.clamp t 7);
  check_int "midpoint" 6 (Interval.midpoint t);
  check_int "midpoint point" 4 (Interval.midpoint (Interval.point 4))

let test_interval_fraction () =
  Alcotest.(check (float 1e-9)) "half" 0.5 (Interval.fraction_of (iv 0 4) ~of_:(iv 0 9));
  Alcotest.(check (float 1e-9)) "disjoint" 0.0 (Interval.fraction_of (iv 20 30) ~of_:(iv 0 9));
  Alcotest.(check (float 1e-9)) "full" 1.0 (Interval.fraction_of (iv 0 9) ~of_:(iv 0 9))

(* Interval properties *)

let interval_gen =
  QCheck.Gen.(
    let* lo = int_range (-50) 50 in
    let* len = int_range 0 40 in
    return (Interval.make lo (lo + len)))

let arb_interval = QCheck.make ~print:Interval.to_string interval_gen

let prop_inter_commutes =
  QCheck.Test.make ~name:"interval intersection commutes" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      match (Interval.inter a b, Interval.inter b a) with
      | None, None -> true
      | Some x, Some y -> Interval.equal x y
      | _ -> false)

let prop_overlap_length_consistent =
  QCheck.Test.make ~name:"overlap_length matches inter" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      match Interval.inter a b with
      | None -> Interval.overlap_length a b = 0
      | Some r -> Interval.overlap_length a b = Interval.length r)

let prop_hull_contains =
  QCheck.Test.make ~name:"hull contains both" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      let h = Interval.hull a b in
      Interval.contains_interval ~outer:h ~inner:a
      && Interval.contains_interval ~outer:h ~inner:b)

(* Rect *)

let r ~x ~y ~w ~h = Rect.make ~x ~y ~w ~h

let test_rect_basic () =
  let t = r ~x:2 ~y:3 ~w:4 ~h:5 in
  check_int "area" 20 (Rect.area t);
  check_int "right" 6 (Rect.right t);
  check_int "top" 8 (Rect.top t);
  let cx, cy = Rect.center t in
  Alcotest.(check (float 1e-9)) "cx" 4.0 cx;
  Alcotest.(check (float 1e-9)) "cy" 5.5 cy

let test_rect_overlap () =
  let a = r ~x:0 ~y:0 ~w:4 ~h:4 in
  check_bool "edge contact is not overlap" false (Rect.overlaps a (r ~x:4 ~y:0 ~w:2 ~h:2));
  check_bool "corner contact is not overlap" false (Rect.overlaps a (r ~x:4 ~y:4 ~w:2 ~h:2));
  check_bool "real overlap" true (Rect.overlaps a (r ~x:3 ~y:3 ~w:2 ~h:2));
  check_int "overlap area" 1 (Rect.overlap_area a (r ~x:3 ~y:3 ~w:2 ~h:2));
  check_int "disjoint area" 0 (Rect.overlap_area a (r ~x:9 ~y:9 ~w:2 ~h:2))

let test_rect_inside_die () =
  check_bool "inside" true (Rect.inside (r ~x:0 ~y:0 ~w:10 ~h:10) ~die_w:10 ~die_h:10);
  check_bool "sticks out" false (Rect.inside (r ~x:1 ~y:0 ~w:10 ~h:10) ~die_w:10 ~die_h:10);
  check_bool "negative corner" false (Rect.inside (r ~x:(-1) ~y:0 ~w:2 ~h:2) ~die_w:10 ~die_h:10)

let test_rect_bounding_box () =
  check_bool "empty" true (Rect.bounding_box [] = None);
  match Rect.bounding_box [ r ~x:0 ~y:0 ~w:2 ~h:2; r ~x:5 ~y:7 ~w:1 ~h:1 ] with
  | Some bb -> check_bool "bb" true (Rect.equal bb (r ~x:0 ~y:0 ~w:6 ~h:8))
  | None -> Alcotest.fail "expected bounding box"

let test_rect_any_overlap () =
  let free = [| r ~x:0 ~y:0 ~w:2 ~h:2; r ~x:2 ~y:0 ~w:2 ~h:2; r ~x:0 ~y:2 ~w:4 ~h:1 |] in
  check_bool "overlap-free" true (Rect.any_overlap free = None);
  let clash = [| r ~x:0 ~y:0 ~w:3 ~h:3; r ~x:5 ~y:5 ~w:2 ~h:2; r ~x:2 ~y:2 ~w:2 ~h:2 |] in
  check_bool "finds pair" true (Rect.any_overlap clash = Some (0, 2))

(* Dims *)

let test_dims_basic () =
  let d = Dims.make ~w:[| 3; 4 |] ~h:[| 5; 6 |] in
  check_int "n" 2 (Dims.n_blocks d);
  check_int "w0" 3 (Dims.width d 0);
  check_int "h1" 6 (Dims.height d 1);
  check_int "area" ((3 * 5) + (4 * 6)) (Dims.total_area d);
  let d2 = Dims.set_width d 0 9 in
  check_int "set_width copies" 3 (Dims.width d 0);
  check_int "new width" 9 (Dims.width d2 0);
  check_bool "equal" true (Dims.equal d (Dims.of_pairs [| (3, 5); (4, 6) |]))

let test_dims_invalid () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Dims.make: width/height arrays differ in length") (fun () ->
      ignore (Dims.make ~w:[| 1 |] ~h:[| 1; 2 |]));
  Alcotest.check_raises "zero width" (Invalid_argument "Dims.make: non-positive width")
    (fun () -> ignore (Dims.make ~w:[| 0 |] ~h:[| 1 |]))

(* Dimbox *)

let box2 =
  Dimbox.make ~w:[| iv 2 10; iv 4 8 |] ~h:[| iv 3 9; iv 5 5 |]

let test_dimbox_contains () =
  check_bool "center in" true (Dimbox.contains box2 (Dims.of_pairs [| (6, 6); (6, 5) |]));
  check_bool "w out" false (Dimbox.contains box2 (Dims.of_pairs [| (11, 6); (6, 5) |]));
  check_bool "h out" false (Dimbox.contains box2 (Dims.of_pairs [| (6, 2); (6, 5) |]));
  check_bool "corner lo" true (Dimbox.contains box2 (Dimbox.lower_corner box2));
  check_bool "corner hi" true (Dimbox.contains box2 (Dimbox.upper_corner box2))

let test_dimbox_overlap_axis () =
  let other = Dimbox.make ~w:[| iv 11 20; iv 4 8 |] ~h:[| iv 3 9; iv 5 5 |] in
  check_bool "disjoint" false (Dimbox.overlaps box2 other);
  check_bool "disjoint axis is w0" true
    (Dimbox.disjoint_axis box2 other = Some (Dimbox.Width 0));
  let overlapping = Dimbox.make ~w:[| iv 9 20; iv 4 8 |] ~h:[| iv 3 9; iv 4 20 |] in
  check_bool "overlaps" true (Dimbox.overlaps box2 overlapping);
  check_bool "no disjoint axis" true (Dimbox.disjoint_axis box2 overlapping = None)

let test_dimbox_with_axis () =
  let t = Dimbox.with_axis box2 (Dimbox.Height 1) (iv 1 2) in
  check_bool "replaced" true (Interval.equal (Dimbox.h_interval t 1) (iv 1 2));
  check_bool "original intact" true (Interval.equal (Dimbox.h_interval box2 1) (iv 5 5))

let test_dimbox_inter () =
  let other = Dimbox.make ~w:[| iv 8 20; iv 4 8 |] ~h:[| iv 3 9; iv 5 5 |] in
  (match Dimbox.inter box2 other with
  | Some r -> check_bool "w0 intersected" true (Interval.equal (Dimbox.w_interval r 0) (iv 8 10))
  | None -> Alcotest.fail "expected intersection");
  let disjoint = Dimbox.make ~w:[| iv 11 20; iv 4 8 |] ~h:[| iv 3 9; iv 5 5 |] in
  check_bool "disjoint inter" true (Dimbox.inter box2 disjoint = None)

let test_dimbox_volume_fraction () =
  let bounds = Dimbox.make ~w:[| iv 0 9 |] ~h:[| iv 0 9 |] in
  let half = Dimbox.make ~w:[| iv 0 4 |] ~h:[| iv 0 9 |] in
  Alcotest.(check (float 1e-9)) "half" 0.5 (Dimbox.volume_fraction half ~bounds);
  Alcotest.(check (float 1e-9)) "full" 1.0 (Dimbox.volume_fraction bounds ~bounds);
  let quarter = Dimbox.make ~w:[| iv 0 4 |] ~h:[| iv 5 9 |] in
  Alcotest.(check (float 1e-9)) "quarter" 0.25 (Dimbox.volume_fraction quarter ~bounds)

let test_dimbox_clamp_center () =
  let c = Dimbox.center box2 in
  check_bool "center inside" true (Dimbox.contains box2 c);
  let far = Dims.of_pairs [| (100, 1); (1, 100) |] in
  let clamped = Dimbox.clamp box2 far in
  check_bool "clamped inside" true (Dimbox.contains box2 clamped);
  check_int "clamped w0" 10 (Dims.width clamped 0);
  check_int "clamped h0" 3 (Dims.height clamped 0)

let test_dimbox_random_dims () =
  let rng = Mps_rng.Rng.create ~seed:4 in
  for _ = 1 to 200 do
    check_bool "random inside" true (Dimbox.contains box2 (Dimbox.random_dims rng box2))
  done

let test_dimbox_axes () =
  Alcotest.(check int) "2N axes" 4 (List.length (Dimbox.axes box2))

(* Dimbox properties *)

let arb_dimbox n =
  let gen =
    QCheck.Gen.(
      let ivl = map2 (fun lo len -> Interval.make lo (lo + len)) (int_range 1 30) (int_range 0 20) in
      let* w = array_size (return n) ivl in
      let* h = array_size (return n) ivl in
      return (Dimbox.make ~w ~h))
  in
  QCheck.make ~print:(Format.asprintf "%a" Dimbox.pp) gen

let prop_dimbox_overlap_symmetric =
  QCheck.Test.make ~name:"dimbox overlap is symmetric" ~count:300
    (QCheck.pair (arb_dimbox 3) (arb_dimbox 3)) (fun (a, b) ->
      Dimbox.overlaps a b = Dimbox.overlaps b a)

let prop_dimbox_inter_contained =
  QCheck.Test.make ~name:"dimbox intersection is inside both" ~count:300
    (QCheck.pair (arb_dimbox 3) (arb_dimbox 3)) (fun (a, b) ->
      match Dimbox.inter a b with
      | None -> not (Dimbox.overlaps a b)
      | Some r -> Dimbox.contains_box ~outer:a ~inner:r && Dimbox.contains_box ~outer:b ~inner:r)

let prop_dimbox_center_contained =
  QCheck.Test.make ~name:"dimbox center is contained" ~count:300 (arb_dimbox 4) (fun t ->
      Dimbox.contains t (Dimbox.center t))

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_inter_commutes;
      prop_overlap_length_consistent;
      prop_hull_contains;
      prop_dimbox_overlap_symmetric;
      prop_dimbox_inter_contained;
      prop_dimbox_center_contained;
    ]

let suite =
  [
    ("interval: basics", `Quick, test_interval_basic);
    ("interval: point", `Quick, test_interval_point);
    ("interval: overlap", `Quick, test_interval_overlap);
    ("interval: inter and hull", `Quick, test_interval_inter_hull);
    ("interval: before/after/split", `Quick, test_interval_before_after_split);
    ("interval: clamp and midpoint", `Quick, test_interval_clamp_midpoint);
    ("interval: fraction_of", `Quick, test_interval_fraction);
    ("rect: basics", `Quick, test_rect_basic);
    ("rect: overlap semantics", `Quick, test_rect_overlap);
    ("rect: inside die", `Quick, test_rect_inside_die);
    ("rect: bounding box", `Quick, test_rect_bounding_box);
    ("rect: any_overlap", `Quick, test_rect_any_overlap);
    ("dims: basics", `Quick, test_dims_basic);
    ("dims: invalid args", `Quick, test_dims_invalid);
    ("dimbox: contains", `Quick, test_dimbox_contains);
    ("dimbox: overlap and disjoint axis", `Quick, test_dimbox_overlap_axis);
    ("dimbox: with_axis", `Quick, test_dimbox_with_axis);
    ("dimbox: intersection", `Quick, test_dimbox_inter);
    ("dimbox: volume fraction", `Quick, test_dimbox_volume_fraction);
    ("dimbox: clamp and center", `Quick, test_dimbox_clamp_center);
    ("dimbox: random dims inside", `Quick, test_dimbox_random_dims);
    ("dimbox: axes enumeration", `Quick, test_dimbox_axes);
  ]
  @ qcheck_suite
