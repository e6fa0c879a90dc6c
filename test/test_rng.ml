(* Tests for the deterministic PRNG helpers. *)

open Mps_rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let draws t = List.init 20 (fun _ -> Rng.int t 1_000_000) in
  check_bool "different seeds differ" true (draws a <> draws b)

let test_copy_replays () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  check_int "copy replays" (Rng.int a 1000) (Rng.int b 1000)

let test_serialization_replays () =
  (* checkpoint/resume determinism rests on this: a rehydrated state
     replays the exact stream, across every draw kind *)
  let a = Rng.create ~seed:11 in
  for _ = 1 to 257 do
    ignore (Rng.float a 1.0)
  done;
  let token = Rng.to_string a in
  check_bool "token is one printable word" true
    (String.for_all (fun c -> c <> ' ' && c <> '\n') token);
  let b = match Rng.of_string token with Some b -> b | None -> Alcotest.fail "rehydrate" in
  for _ = 1 to 500 do
    check_int "ints replay" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done;
  for _ = 1 to 500 do
    Alcotest.(check (float 0.0)) "floats replay" (Rng.float a 1.0) (Rng.float b 1.0)
  done;
  check_bool "bools replay" (Rng.bool a) (Rng.bool b)

let test_serialization_rejects_garbage () =
  check_bool "empty rejected" true (Rng.of_string "" = None);
  check_bool "odd length rejected" true (Rng.of_string "abc" = None);
  check_bool "non-hex rejected" true (Rng.of_string "zz" = None);
  check_bool "truncated blob rejected" true (Rng.of_string "0a1b" = None)

(* A well-formed marshal blob of another value, wrapped in a valid key:
   unmarshalling it as a state would crash the first draw, so it must
   be refused up front — and so must a state blob one byte short. *)
let test_forged_token_refused () =
  let hex s =
    String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
  in
  let token blob = "0000000000000007." ^ hex blob in
  check_bool "marshalled string refused" true
    (Rng.of_string (token (Marshal.to_string (String.make 53 'x') [])) = None);
  let good = Rng.to_string (Rng.create ~seed:5) in
  check_bool "well-formed state accepted" true (Rng.of_string good <> None);
  check_bool "short state refused" true
    (Rng.of_string (String.sub good 0 (String.length good - 2)) = None);
  check_bool "keyless token refused" true
    (Rng.of_string (String.sub good 17 (String.length good - 17)) = None)

let draws t = List.init 50 (fun _ -> Rng.int t 1_000_000)

let test_split_independent () =
  (* independence smoke test: parent, siblings, and cross-seed streams
     must not correlate *)
  let a = Rng.create ~seed:3 in
  let b = Rng.split a 0 and c = Rng.split a 1 in
  check_bool "child differs from parent" true (draws (Rng.copy a) <> draws b);
  check_bool "siblings differ" true (draws (Rng.copy b) <> draws (Rng.copy c));
  let d = Rng.split (Rng.create ~seed:4) 0 in
  check_bool "children of different seeds differ" true (draws b <> draws d);
  (* coarse correlation check: sibling streams agree on a uniform draw
     about as often as independent ones would (1/64 per position) *)
  let x = Rng.split a 2 and y = Rng.split a 3 in
  let agree = ref 0 in
  for _ = 1 to 2048 do
    if Rng.int x 64 = Rng.int y 64 then incr agree
  done;
  check_bool "siblings uncorrelated" true (!agree < 100)

let test_split_deterministic () =
  (* same (seed, id) -> identical stream, regardless of how much the
     parent has drawn: splitting is a pure function of the key path *)
  let a = Rng.create ~seed:3 in
  let early = draws (Rng.split a 5) in
  for _ = 1 to 100 do
    ignore (Rng.int a 1000)
  done;
  Alcotest.(check (list int)) "same (seed,id) stream" early (draws (Rng.split a 5));
  Alcotest.(check (list int)) "fresh parent, same stream" early
    (draws (Rng.split (Rng.create ~seed:3) 5))

let test_split_pure () =
  (* splitting consumes nothing from the parent *)
  let a = Rng.create ~seed:3 and b = Rng.create ~seed:3 in
  ignore (Rng.split a 0);
  ignore (Rng.split a 1);
  Alcotest.(check (list int)) "parent stream undisturbed" (draws b) (draws a)

let test_split_survives_serialization () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.int a 1000);
  let b =
    match Rng.of_string (Rng.to_string a) with
    | Some b -> b
    | None -> Alcotest.fail "rehydrate"
  in
  Alcotest.(check (list int)) "split replays after round-trip"
    (draws (Rng.split a 7)) (draws (Rng.split b 7));
  Alcotest.check_raises "negative id" (Invalid_argument "Rng.split: stream id must be >= 0")
    (fun () -> ignore (Rng.split a (-1)))

let test_int_in_range () =
  let t = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int_in t (-5) 5 in
    check_bool "in range" true (v >= -5 && v <= 5)
  done

let test_int_in_degenerate () =
  let t = Rng.create ~seed:1 in
  check_int "single point" 42 (Rng.int_in t 42 42)

let test_int_in_covers_endpoints () =
  let t = Rng.create ~seed:1 in
  let seen = Array.make 3 false in
  for _ = 1 to 500 do
    seen.(Rng.int_in t 0 2) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let test_invalid_args () =
  let t = Rng.create ~seed:1 in
  Alcotest.check_raises "int non-positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () -> ignore (Rng.int t 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in t 3 2));
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose t [||]))

let test_bernoulli_extremes () =
  let t = Rng.create ~seed:1 in
  for _ = 1 to 50 do
    check_bool "p=1" true (Rng.bernoulli t 1.0);
    check_bool "p=0" false (Rng.bernoulli t 0.0)
  done

let test_bernoulli_rate () =
  let t = Rng.create ~seed:5 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_shuffle_in_place_permutation () =
  let t = Rng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place t a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_sample_distinct () =
  let t = Rng.create ~seed:11 in
  for _ = 1 to 50 do
    let s = Rng.sample_distinct t ~k:5 ~n:10 in
    check_int "k values" 5 (List.length s);
    check_int "distinct" 5 (List.length (List.sort_uniq Int.compare s));
    List.iter (fun v -> check_bool "in range" true (v >= 0 && v < 10)) s
  done

let test_sample_distinct_full () =
  let t = Rng.create ~seed:11 in
  let s = Rng.sample_distinct t ~k:10 ~n:10 in
  Alcotest.(check (list int)) "whole range" (List.init 10 Fun.id)
    (List.sort Int.compare s)

let test_float_in () =
  let t = Rng.create ~seed:2 in
  for _ = 1 to 1000 do
    let v = Rng.float_in t (-1.5) 2.5 in
    check_bool "in range" true (v >= -1.5 && v < 2.5)
  done

let suite =
  [
    ("same seed, same stream", `Quick, test_determinism);
    ("different seeds differ", `Quick, test_seed_sensitivity);
    ("copy replays the stream", `Quick, test_copy_replays);
    ("serialized state replays the stream", `Quick, test_serialization_replays);
    ("of_string rejects garbage", `Quick, test_serialization_rejects_garbage);
    ("of_string refuses a forged state blob", `Quick, test_forged_token_refused);
    ("split yields independent streams", `Quick, test_split_independent);
    ("split is deterministic in (seed, id)", `Quick, test_split_deterministic);
    ("split leaves the parent stream intact", `Quick, test_split_pure);
    ("split survives serialization", `Quick, test_split_survives_serialization);
    ("int_in respects bounds", `Quick, test_int_in_range);
    ("int_in degenerate range", `Quick, test_int_in_degenerate);
    ("int_in covers endpoints", `Quick, test_int_in_covers_endpoints);
    ("invalid arguments raise", `Quick, test_invalid_args);
    ("bernoulli extremes", `Quick, test_bernoulli_extremes);
    ("bernoulli empirical rate", `Quick, test_bernoulli_rate);
    ("shuffle_in_place is a permutation", `Quick, test_shuffle_in_place_permutation);
    ("sample_distinct draws k distinct", `Quick, test_sample_distinct);
    ("sample_distinct full range", `Quick, test_sample_distinct_full);
    ("float_in respects bounds", `Quick, test_float_in);
  ]
