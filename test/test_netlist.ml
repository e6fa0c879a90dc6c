(* Tests for blocks, nets, circuits and the Table 1 benchmark set. *)

open Mps_geometry
open Mps_netlist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Block *)

let test_block_make () =
  let blk = Block.make_wh ~id:3 ~name:"dp" ~w:(10, 40) ~h:(8, 24) in
  check_int "min w" 10 (fst (Block.min_dims blk));
  check_int "max w" 40 (fst (Block.max_dims blk));
  check_int "min h" 8 (snd (Block.min_dims blk));
  check_int "max h" 24 (snd (Block.max_dims blk));
  check_int "max area" 960 (Block.max_area blk)

let test_block_dims_valid () =
  let blk = Block.make_wh ~id:0 ~name:"b" ~w:(10, 40) ~h:(8, 24) in
  check_bool "inside" true (Block.dims_valid blk ~w:10 ~h:24);
  check_bool "w too small" false (Block.dims_valid blk ~w:9 ~h:20);
  check_bool "h too big" false (Block.dims_valid blk ~w:20 ~h:25)

let test_block_invalid () =
  Alcotest.check_raises "negative id" (Invalid_argument "Block.make: negative id")
    (fun () -> ignore (Block.make_wh ~id:(-1) ~name:"x" ~w:(1, 2) ~h:(1, 2)));
  Alcotest.check_raises "zero min width"
    (Invalid_argument "Block.make: non-positive minimum dimension") (fun () ->
      ignore (Block.make_wh ~id:0 ~name:"x" ~w:(0, 2) ~h:(1, 2)))

(* Net *)

let test_net_terminals () =
  let n =
    Net.make ~id:0 ~name:"n"
      ~pins:[ Net.block_pin 0; Net.block_pin 1; Net.pad ~px:0.0 ~py:0.5 ]
  in
  check_int "terminal count excludes pads" 2 (Net.terminal_count n);
  check_int "degree includes pads" 3 (Net.degree n)

let test_net_blocks_dedup () =
  let n =
    Net.make ~id:0 ~name:"n"
      ~pins:[ Net.block_pin 2; Net.block_pin ~fx:0.1 2; Net.block_pin 0 ]
  in
  Alcotest.(check (list int)) "sorted distinct blocks" [ 0; 2 ] (Net.blocks n)

let test_net_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Net.make: empty pin list") (fun () ->
      ignore (Net.make ~id:0 ~name:"n" ~pins:[]));
  Alcotest.check_raises "fraction" (Invalid_argument "Net.make: pin fraction out of [0,1]")
    (fun () -> ignore (Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin ~fx:1.5 0 ]))

(* Circuit *)

let tiny_circuit () =
  let blocks =
    [|
      Block.make_wh ~id:0 ~name:"a" ~w:(4, 8) ~h:(4, 8);
      Block.make_wh ~id:1 ~name:"b" ~w:(2, 10) ~h:(2, 10);
    |]
  in
  let nets = [| Net.make ~id:0 ~name:"n0" ~pins:[ Net.block_pin 0; Net.block_pin 1 ] |] in
  Circuit.make ~name:"tiny" ~blocks ~nets

let test_circuit_counts () =
  let c = tiny_circuit () in
  check_int "blocks" 2 (Circuit.n_blocks c);
  check_int "nets" 1 (Circuit.n_nets c);
  check_int "terminals" 2 (Circuit.n_terminals c)

let test_circuit_bad_block_id () =
  let blocks = [| Block.make_wh ~id:1 ~name:"a" ~w:(1, 2) ~h:(1, 2) |] in
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "Circuit.make: block a has id 1 at index 0") (fun () ->
      ignore (Circuit.make ~name:"bad" ~blocks ~nets:[||]))

let test_circuit_bad_net_ref () =
  let blocks = [| Block.make_wh ~id:0 ~name:"a" ~w:(1, 2) ~h:(1, 2) |] in
  let nets = [| Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin 3 ] |] in
  Alcotest.check_raises "dangling pin"
    (Invalid_argument "Circuit.make: net n references unknown block 3") (fun () ->
      ignore (Circuit.make ~name:"bad" ~blocks ~nets))

let test_circuit_dims () =
  let c = tiny_circuit () in
  let lo = Circuit.min_dims c and hi = Circuit.max_dims c in
  check_int "min w0" 4 (Dims.width lo 0);
  check_int "max h1" 10 (Dims.height hi 1);
  check_bool "min valid" true (Circuit.dims_valid c lo);
  check_bool "max valid" true (Circuit.dims_valid c hi);
  check_bool "too small" false (Circuit.dims_valid c (Dims.set_width lo 0 1));
  check_int "total max area" (64 + 100) (Circuit.total_max_area c)

let test_circuit_default_die () =
  let c = tiny_circuit () in
  let die_w, die_h = Circuit.default_die c in
  check_bool "die fits max areas with slack" true (die_w * die_h >= 2 * (64 + 100));
  check_bool "square" true (die_w = die_h)

let test_dim_bounds () =
  let c = tiny_circuit () in
  let bounds = Circuit.dim_bounds c in
  check_bool "contains min" true (Dimbox.contains bounds (Circuit.min_dims c));
  check_bool "contains max" true (Dimbox.contains bounds (Circuit.max_dims c))

(* Table 1 *)

let table1 =
  [
    ("circ01", 4, 4, 12);
    ("circ02", 6, 4, 18);
    ("circ06", 6, 4, 18);
    ("TwoStage Opamp", 5, 9, 22);
    ("SingleEnded Opamp", 9, 14, 32);
    ("Mixer", 8, 6, 15);
    ("circ08", 8, 8, 24);
    ("tso-cascode", 21, 36, 46);
    ("benchmark24", 24, 48, 48);
  ]

let test_table1_counts () =
  List.iter
    (fun (name, blocks, nets, terminals) ->
      let c = Benchmarks.by_name name in
      check_int (name ^ " blocks") blocks (Circuit.n_blocks c);
      check_int (name ^ " nets") nets (Circuit.n_nets c);
      check_int (name ^ " terminals") terminals (Circuit.n_terminals c))
    table1

let test_table1_order () =
  Alcotest.(check (list string))
    "Table 1 order"
    (List.map (fun (n, _, _, _) -> n) table1)
    (List.map (fun c -> c.Circuit.name) Benchmarks.all)

let test_by_name_aliases () =
  check_bool "tso alias" true (Benchmarks.by_name "tso" == Benchmarks.two_stage_opamp);
  check_bool "seo alias" true (Benchmarks.by_name "SEO" == Benchmarks.single_ended_opamp);
  check_bool "case-insensitive" true (Benchmarks.by_name "MIXER" == Benchmarks.mixer);
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Benchmarks.by_name "nope"))

let test_every_net_geometric () =
  (* every net has at least two endpoints, so HPWL is well defined *)
  List.iter
    (fun c ->
      Array.iter
        (fun net ->
          check_bool
            (Printf.sprintf "%s/%s degree >= 2" c.Circuit.name net.Net.name)
            true
            (Net.degree net >= 2))
        c.Circuit.nets)
    Benchmarks.all

let test_every_block_referenced_in_hand_circuits () =
  List.iter
    (fun c ->
      let used = Hashtbl.create 16 in
      Array.iter
        (fun net -> List.iter (fun i -> Hashtbl.replace used i ()) (Net.blocks net))
        c.Circuit.nets;
      for i = 0 to Circuit.n_blocks c - 1 do
        check_bool
          (Printf.sprintf "%s block %d referenced" c.Circuit.name i)
          true (Hashtbl.mem used i)
      done)
    [ Benchmarks.two_stage_opamp; Benchmarks.single_ended_opamp; Benchmarks.mixer ]

let test_synthetic_determinism () =
  let c1 = Benchmarks.synthetic ~name:"x" ~blocks:5 ~nets:7 ~terminals:14 ~seed:42 in
  let c2 = Benchmarks.synthetic ~name:"x" ~blocks:5 ~nets:7 ~terminals:14 ~seed:42 in
  check_int "same terminals" (Circuit.n_terminals c1) (Circuit.n_terminals c2);
  Array.iteri
    (fun i b1 ->
      check_bool (Printf.sprintf "block %d equal" i) true (Block.equal b1 c2.Circuit.blocks.(i)))
    c1.Circuit.blocks

let test_synthetic_exact_counts () =
  List.iter
    (fun (blocks, nets, terminals) ->
      let c =
        Benchmarks.synthetic ~name:"s" ~blocks ~nets ~terminals ~seed:(blocks * nets)
      in
      check_int "blocks" blocks (Circuit.n_blocks c);
      check_int "nets" nets (Circuit.n_nets c);
      check_int "terminals" terminals (Circuit.n_terminals c))
    [ (3, 2, 6); (10, 20, 20); (24, 48, 48); (7, 3, 21); (2, 9, 9) ]

let suite =
  [
    ("block: make and bounds", `Quick, test_block_make);
    ("block: dims_valid", `Quick, test_block_dims_valid);
    ("block: invalid args", `Quick, test_block_invalid);
    ("net: terminal count excludes pads", `Quick, test_net_terminals);
    ("net: blocks deduped", `Quick, test_net_blocks_dedup);
    ("net: invalid args", `Quick, test_net_invalid);
    ("circuit: counts", `Quick, test_circuit_counts);
    ("circuit: rejects bad block ids", `Quick, test_circuit_bad_block_id);
    ("circuit: rejects dangling net pins", `Quick, test_circuit_bad_net_ref);
    ("circuit: dimension vectors and bounds", `Quick, test_circuit_dims);
    ("circuit: default die", `Quick, test_circuit_default_die);
    ("circuit: dim_bounds contains extremes", `Quick, test_dim_bounds);
    ("benchmarks: Table 1 counts", `Quick, test_table1_counts);
    ("benchmarks: Table 1 order", `Quick, test_table1_order);
    ("benchmarks: name lookup", `Quick, test_by_name_aliases);
    ("benchmarks: nets have >= 2 endpoints", `Quick, test_every_net_geometric);
    ("benchmarks: hand circuits use all blocks", `Quick,
     test_every_block_referenced_in_hand_circuits);
    ("benchmarks: synthetic is deterministic", `Quick, test_synthetic_determinism);
    ("benchmarks: synthetic exact counts", `Quick, test_synthetic_exact_counts);
  ]
