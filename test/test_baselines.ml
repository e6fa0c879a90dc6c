(* Tests for the baseline placers (template / SA), the shared
   re-packer and the coordinate annealer. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_baselines

let check_bool = Alcotest.(check bool)

let circuit = Benchmarks.circ01
let die_w, die_h = Circuit.default_die circuit

(* Repack *)

let test_repack_no_overlap () =
  let rng = Rng.create ~seed:1 in
  let bounds = Circuit.dim_bounds circuit in
  let coords = [| (0, 0); (5, 5); (40, 0); (10, 30) |] in
  for _ = 1 to 50 do
    let dims = Dimbox.random_dims rng bounds in
    let rects = Repack.instantiate ~coords dims in
    check_bool "no overlap" true (Rect.any_overlap rects = None);
    Array.iteri
      (fun i r ->
        check_bool "dims preserved" true
          (r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i))
      rects
  done

let test_repack_identity_when_legal () =
  (* far-apart blocks do not move *)
  let coords = [| (0, 0); (100, 100); (200, 0); (0, 200) |] in
  let dims = Circuit.min_dims circuit in
  let rects = Repack.instantiate ~coords dims in
  Array.iteri
    (fun i r ->
      let x, y = coords.(i) in
      check_bool "kept in place" true (r.Rect.x = x && r.Rect.y = y))
    rects

let test_repack_die_fit () =
  (* blocks packed near the top wander back into the die when possible *)
  let coords = [| (0, 95); (5, 96); (10, 97); (15, 98) |] in
  let dims = Circuit.min_dims circuit in
  let rects = Repack.instantiate ~die:(200, 120) ~coords dims in
  check_bool "fits the die" true
    (Array.for_all (fun r -> Rect.inside r ~die_w:200 ~die_h:120) rects)

let test_repack_mismatch () =
  Alcotest.check_raises "count" (Invalid_argument "Repack.instantiate: block count mismatch")
    (fun () ->
      ignore (Repack.instantiate ~coords:[| (0, 0) |] (Dims.of_pairs [| (1, 1); (2, 2) |])))

(* Reference re-packer: the plain unit-step slide, one y at a time,
   with an independent die fit.  [Repack.order] supplies the visit
   order (checked on its own below) so ties between duplicate corners
   resolve the same way. *)
let slide_reference ?die ~coords dims =
  let out = Array.map (fun _ -> Rect.make ~x:0 ~y:0 ~w:1 ~h:1) coords in
  let placed = ref [] in
  Array.iter
    (fun i ->
      let x, y = coords.(i) and w = Dims.width dims i and h = Dims.height dims i in
      let rec settle y =
        let r = Rect.make ~x ~y ~w ~h in
        if List.exists (Rect.overlaps r) !placed then settle (y + 1) else r
      in
      out.(i) <- settle y;
      placed := out.(i) :: !placed)
    (Repack.order coords);
  let shift lo hi die = if hi - lo > die || lo < 0 then -lo else min 0 (die - hi) in
  match die with
  | None -> out
  | Some (die_w, die_h) ->
    let fold f init = Array.fold_left (fun a r -> f a r) init out in
    let min_x = fold (fun a r -> min a r.Rect.x) max_int
    and min_y = fold (fun a r -> min a r.Rect.y) max_int
    and max_x = fold (fun a r -> max a (Rect.right r)) min_int
    and max_y = fold (fun a r -> max a (Rect.top r)) min_int in
    let dx = shift min_x max_x die_w and dy = shift min_y max_y die_h in
    Array.map (fun r -> Rect.translate r ~dx ~dy) out

let same_rects a b = Array.length a = Array.length b && Array.for_all2 Rect.equal a b

(* [Repack.order] is a permutation sorted by corner. *)
let order_is_sorted_permutation coords =
  let order = Repack.order coords in
  List.sort Int.compare (Array.to_list order) = List.init (Array.length coords) Fun.id
  && Array.for_all Fun.id
       (Array.init
          (max 0 (Array.length order - 1))
          (fun k -> compare coords.(order.(k)) coords.(order.(k + 1)) <= 0))

(* Random corners on a small grid (so overlapping and duplicate corners
   are common), random dims, with and without a die. *)
let prop_pack_matches_reference =
  QCheck.Test.make ~name:"repack: pack and instantiate match the unit-step slide"
    ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 1 + Rng.int rng 12 in
      let coords = Array.init n (fun _ -> (Rng.int rng 16, Rng.int rng 16)) in
      let dims =
        Dims.of_pairs (Array.init n (fun _ -> (1 + Rng.int rng 9, 1 + Rng.int rng 9)))
      in
      let die = if Rng.int rng 2 = 0 then None else Some (4 + Rng.int rng 40, 4 + Rng.int rng 40) in
      let out = Array.init n (fun _ -> Rect.make ~x:7 ~y:7 ~w:3 ~h:3) in
      Repack.pack ~order:(Repack.order coords) ~out ~coords dims;
      Option.iter (fun (die_w, die_h) -> Repack.fit_die_in_place ~die_w ~die_h out) die;
      let expected = slide_reference ?die ~coords dims in
      order_is_sorted_permutation coords
      && same_rects expected out
      && same_rects expected (Repack.instantiate ?die ~coords dims))

(* The warm re-pack along a walk of small dim changes, on two
   placements taking turns under their own keys (and now and then a
   caller scribbling on the buffer): every answer equals the
   unit-step slide with the die fit, as a cold pack would give. *)
let prop_pack_warm_matches_reference =
  QCheck.Test.make ~name:"repack: pack_warm along a walk matches the unit-step slide"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 1 + Rng.int rng 12 in
      let corners () = Array.init n (fun _ -> (Rng.int rng 16, Rng.int rng 16)) in
      let placements = [| corners (); corners () |] in
      let orders = Array.map Repack.order placements in
      let die_w = 4 + Rng.int rng 40 and die_h = 4 + Rng.int rng 40 in
      let w = Array.init n (fun _ -> 1 + Rng.int rng 9) in
      let h = Array.init n (fun _ -> 1 + Rng.int rng 9) in
      let warm = Repack.warm () in
      let out = Array.init n (fun _ -> Rect.make ~x:7 ~y:7 ~w:3 ~h:3) in
      let ok = ref true in
      for _ = 1 to 40 do
        for _ = 0 to Rng.int rng 2 do
          let i = Rng.int rng n in
          let a = if Rng.int rng 2 = 0 then w else h in
          a.(i) <- max 1 (a.(i) + Rng.int_in rng (-3) 3)
        done;
        let key = if Rng.int rng 4 = 0 then 1 else 0 in
        let coords = placements.(key) in
        let dims = Dims.make ~w ~h in
        Repack.pack_warm warm ~key ~order:orders.(key) ~coords ~die_w ~die_h ~out dims;
        ok := !ok && same_rects (slide_reference ~die:(die_w, die_h) ~coords dims) out;
        if Rng.int rng 5 = 0 then Array.iter (fun r -> Rect.set r ~x:0 ~y:0 ~w:1 ~h:1) out
      done;
      !ok)

(* Every Table 1 backup template, re-packed into one reused buffer
   (stale contents from the previous sample) at random sizings. *)
let test_repack_backups_match_reference () =
  let rng = Rng.create ~seed:41 in
  List.iter
    (fun (c, structure) ->
      let backup = Mps_core.Structure.backup structure in
      let p = backup.Mps_core.Stored.placement in
      let coords = p.Placement.coords and die = (p.Placement.die_w, p.Placement.die_h) in
      let order = Repack.order coords in
      check_bool (c.Circuit.name ^ ": order sorted") true (order_is_sorted_permutation coords);
      let out = Array.map (fun _ -> Rect.make ~x:0 ~y:0 ~w:1 ~h:1) coords in
      for _ = 1 to 100 do
        let dims = Dimbox.random_dims rng (Circuit.dim_bounds c) in
        let expected = slide_reference ~die ~coords dims in
        Mps_core.Stored.instantiate_repacked_into backup ~order ~out dims;
        check_bool (c.Circuit.name ^ ": repacked into buffer") true (same_rects expected out);
        check_bool (c.Circuit.name ^ ": repacked") true
          (same_rects expected (Mps_core.Stored.instantiate_repacked backup dims))
      done)
    (Lazy.force Test_engine.structures)

(* Coord_opt / Sa_placer *)

let test_coord_opt_improves () =
  let rng = Rng.create ~seed:3 in
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let quick = { Coord_opt.default_config with Coord_opt.iterations = 1500 } in
  let r = Coord_opt.optimize ~config:quick ~rng circuit ~die_w ~die_h dims in
  check_bool "legal result" true r.Coord_opt.legal;
  check_bool "placement matches rects" true
    (Array.for_all2
       (fun (x, y) rect -> rect.Rect.x = x && rect.Rect.y = y)
       r.Coord_opt.placement.Placement.coords r.Coord_opt.rects);
  (* optimized cost beats the average of random placements *)
  let random_cost () =
    let p = Placement.random rng circuit ~die_w ~die_h in
    Mps_cost.Cost.total circuit ~die_w ~die_h (Placement.rects p (Circuit.min_dims circuit))
  in
  let avg_random =
    List.fold_left ( +. ) 0.0 (List.init 10 (fun _ -> random_cost ())) /. 10.0
  in
  check_bool "better than random" true (r.Coord_opt.cost < avg_random)

let test_sa_placer_legal_and_deterministic () =
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let run seed =
    Sa_placer.place ~iterations:1200 ~rng:(Rng.create ~seed) circuit ~die_w ~die_h dims
  in
  let a = run 5 and b = run 5 in
  check_bool "legal" true a.Coord_opt.legal;
  Alcotest.(check (float 1e-12)) "deterministic" a.Coord_opt.cost b.Coord_opt.cost;
  check_bool "right dims" true
    (Array.for_all2
       (fun r i -> r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i)
       a.Coord_opt.rects
       (Array.init (Circuit.n_blocks circuit) Fun.id))

let test_sa_placer_dims_mismatch () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Coord_opt.optimize: block count mismatch") (fun () ->
      ignore (Sa_placer.place ~rng circuit ~die_w ~die_h (Dims.of_pairs [| (1, 1) |])))

(* Template placer *)

let test_template_build_and_instantiate () =
  let rng = Rng.create ~seed:7 in
  let t = Template_placer.build ~iterations:800 ~rng circuit ~die_w ~die_h in
  check_bool "die recorded" true (Template_placer.die t = (die_w, die_h));
  let bounds = Circuit.dim_bounds circuit in
  let rng2 = Rng.create ~seed:8 in
  for _ = 1 to 30 do
    let dims = Dimbox.random_dims rng2 bounds in
    let rects = Template_placer.instantiate t dims in
    check_bool "no overlap" true (Rect.any_overlap rects = None);
    Array.iteri
      (fun i r ->
        check_bool "dims honoured" true
          (r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i))
      rects
  done

let test_template_fixed_arrangement () =
  (* the template's relative x-order of blocks never changes *)
  let rng = Rng.create ~seed:7 in
  let t = Template_placer.build ~iterations:800 ~rng circuit ~die_w ~die_h in
  let order rects =
    let idx = Array.init (Array.length rects) Fun.id in
    Array.sort (fun i j -> Int.compare rects.(i).Rect.x rects.(j).Rect.x) idx;
    Array.to_list idx
  in
  let nominal = order (Template_placer.instantiate t (Dimbox.center (Circuit.dim_bounds circuit))) in
  let at_min = order (Template_placer.instantiate t (Circuit.min_dims circuit)) in
  Alcotest.(check (list int)) "same left-to-right story" nominal at_min

(* Cross-strategy sanity: optimization beats the fixed template on
   average over random dimension vectors. *)
let test_sa_beats_template_on_average () =
  let rng = Rng.create ~seed:11 in
  let t = Template_placer.build ~iterations:800 ~rng circuit ~die_w ~die_h in
  let bounds = Circuit.dim_bounds circuit in
  let sa_rng = Rng.create ~seed:12 in
  let trials = 8 in
  let sa_total = ref 0.0 and tp_total = ref 0.0 in
  let probe_rng = Rng.create ~seed:13 in
  for _ = 1 to trials do
    let dims = Dimbox.random_dims probe_rng bounds in
    let sa = Sa_placer.place ~iterations:1500 ~rng:sa_rng circuit ~die_w ~die_h dims in
    let tp = Template_placer.instantiate t dims in
    sa_total := !sa_total +. sa.Coord_opt.cost;
    tp_total := !tp_total +. Mps_cost.Cost.total circuit ~die_w ~die_h tp
  done;
  check_bool "optimization wins on quality" true (!sa_total < !tp_total)

let suite =
  [
    ("repack: overlap-free at requested dims", `Quick, test_repack_no_overlap);
    ("repack: keeps legal arrangements in place", `Quick, test_repack_identity_when_legal);
    ("repack: fits the die when possible", `Quick, test_repack_die_fit);
    ("repack: block count mismatch", `Quick, test_repack_mismatch);
    ("coord_opt: legal and better than random", `Quick, test_coord_opt_improves);
    ("sa placer: legal and deterministic", `Quick, test_sa_placer_legal_and_deterministic);
    ("sa placer: dims mismatch raises", `Quick, test_sa_placer_dims_mismatch);
    ("template: legal instantiation over the space", `Quick, test_template_build_and_instantiate);
    ("template: arrangement is fixed", `Quick, test_template_fixed_arrangement);
    ("sa beats template on average", `Quick, test_sa_beats_template_on_average);
    ("repack: Table 1 backups match the unit-step slide", `Quick,
     test_repack_backups_match_reference);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_pack_matches_reference; prop_pack_warm_matches_reference ]
