(* Tests for cooling schedules and the generic annealer. *)

open Mps_rng
open Mps_anneal

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_geometric () =
  let s = Schedule.geometric ~t0:100.0 ~alpha:0.5 ~t_min:1.0 in
  check_float "step 0" 100.0 (Schedule.temperature s ~step:0);
  check_float "step 1" 50.0 (Schedule.temperature s ~step:1);
  check_float "step 2" 25.0 (Schedule.temperature s ~step:2);
  check_float "floor" 1.0 (Schedule.temperature s ~step:100)

let test_geometric_invalid () =
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Schedule.geometric: need t0 > 0, 0 < alpha < 1, t_min > 0")
    (fun () -> ignore (Schedule.geometric ~t0:1000.0 ~alpha:1.5 ~t_min:1e-3))

(* [t0 = t_min = c] holds the temperature at [c]. *)
let constant c = Schedule.geometric ~t0:c ~alpha:0.5 ~t_min:c

let test_constant () =
  let s = constant 3.0 in
  check_float "always" 3.0 (Schedule.temperature s ~step:77)

let test_negative_step () =
  Alcotest.check_raises "negative" (Invalid_argument "Schedule.temperature: negative step")
    (fun () -> ignore (Schedule.temperature (constant 1.0) ~step:(-1)))

(* Annealer on a 1-D quadratic: must find the minimum region. *)
let quadratic_problem =
  {
    Annealer.initial = 50.0;
    cost = (fun x -> (x -. 7.0) *. (x -. 7.0));
    neighbor = (fun rng x -> x +. Rng.float_in rng (-3.0) 3.0);
  }

let run_quadratic seed =
  Annealer.run ~rng:(Rng.create ~seed)
    ~schedule:(Schedule.geometric ~t0:100.0 ~alpha:0.97 ~t_min:1e-4)
    ~iterations:2000 quadratic_problem

let test_annealer_finds_minimum () =
  let r = run_quadratic 3 in
  check_bool "near 7" true (abs_float (r.Annealer.best -. 7.0) < 0.5);
  check_bool "best cost small" true (r.Annealer.best_cost < 0.5)

let test_annealer_statistics () =
  let r = run_quadratic 3 in
  check_bool "best <= final" true (r.Annealer.best_cost <= r.Annealer.final_cost);
  check_bool "avg >= best" true (r.Annealer.average_cost >= r.Annealer.best_cost);
  check_bool "evaluations = iterations + initial" true (r.Annealer.evaluations = 2001);
  check_bool "some acceptances" true (r.Annealer.acceptances > 0)

let test_annealer_deterministic () =
  let a = run_quadratic 9 and b = run_quadratic 9 in
  check_float "same best" a.Annealer.best b.Annealer.best;
  check_float "same avg" a.Annealer.average_cost b.Annealer.average_cost

let test_annealer_zero_iterations () =
  let r =
    Annealer.run ~rng:(Rng.create ~seed:1) ~schedule:(constant 1.0) ~iterations:0
      quadratic_problem
  in
  check_float "best is initial" 50.0 r.Annealer.best;
  check_bool "one evaluation" true (r.Annealer.evaluations = 1)

let test_annealer_on_accept_hook () =
  let count = ref 0 in
  let r =
    Annealer.run
      ~on_accept:(fun _ ~cost:_ ~step:_ -> incr count)
      ~rng:(Rng.create ~seed:2)
      ~schedule:(constant 10.0) ~iterations:100 quadratic_problem
  in
  Alcotest.(check int) "hook fired per acceptance" r.Annealer.acceptances !count

let test_annealer_should_stop () =
  let r =
    Annealer.run
      ~should_stop:(fun ~best_cost:_ ~step -> step >= 10)
      ~rng:(Rng.create ~seed:2)
      ~schedule:(constant 10.0) ~iterations:1000 quadratic_problem
  in
  check_bool "stopped early" true (r.Annealer.evaluations <= 11)

let test_annealer_greedy_at_low_temp () =
  (* At a near-zero temperature only improving moves are accepted, so
     the final cost never exceeds the initial cost. *)
  let r =
    Annealer.run ~rng:(Rng.create ~seed:4) ~schedule:(constant 1e-12)
      ~iterations:500 quadratic_problem
  in
  check_bool "monotone improvement" true
    (r.Annealer.final_cost <= quadratic_problem.Annealer.cost 50.0)

(* The move-based interface on the same quadratic: state is a mutable
   driver variable, the annealer sees only deltas. *)
let run_moves_quadratic ?should_stop seed iterations =
  let cost x = (x -. 7.0) *. (x -. 7.0) in
  let cur = ref 50.0 and staged = ref 50.0 and best = ref 50.0 in
  let problem =
    {
      Annealer.propose = (fun rng -> Rng.float_in rng (-3.0) 3.0);
      delta_cost =
        (fun dx ->
          staged := !cur +. dx;
          cost !staged -. cost !cur);
      commit = (fun _ -> cur := !staged);
      reject = (fun _ -> staged := !cur);
    }
  in
  let r =
    Annealer.run_moves
      ~on_improve:(fun ~cost:_ ~step:_ -> best := !cur)
      ?should_stop ~rng:(Rng.create ~seed)
      ~schedule:(Schedule.geometric ~t0:100.0 ~alpha:0.97 ~t_min:1e-4)
      ~iterations ~initial_cost:(cost 50.0) problem
  in
  (r, !best)

let test_run_moves_finds_minimum () =
  let r, best = run_moves_quadratic 3 2000 in
  check_bool "near 7" true (abs_float (best -. 7.0) < 0.5);
  check_bool "best cost small" true (r.Annealer.mv_best_cost < 0.5)

let test_run_moves_matches_run () =
  (* Same RNG draws, same Metropolis rule: the move-based run must make
     exactly the decisions of the functional one (costs drift only by
     delta-accumulation rounding). *)
  let r = run_quadratic 9 and m, best = run_moves_quadratic 9 2000 in
  let close = Alcotest.(check (float 1e-6)) in
  close "same best state" r.Annealer.best best;
  close "same best cost" r.Annealer.best_cost m.Annealer.mv_best_cost;
  close "same final cost" r.Annealer.final_cost m.Annealer.mv_final_cost;
  close "same average" r.Annealer.average_cost m.Annealer.mv_average_cost;
  Alcotest.(check int) "same evaluations" r.Annealer.evaluations m.Annealer.mv_evaluations;
  Alcotest.(check int) "same acceptances" r.Annealer.acceptances m.Annealer.mv_acceptances

let test_run_moves_statistics () =
  let r, _ = run_moves_quadratic 3 2000 in
  check_bool "best <= final" true (r.Annealer.mv_best_cost <= r.Annealer.mv_final_cost);
  check_bool "avg >= best" true (r.Annealer.mv_average_cost >= r.Annealer.mv_best_cost);
  check_bool "evaluations = iterations + initial" true (r.Annealer.mv_evaluations = 2001);
  check_bool "some acceptances" true (r.Annealer.mv_acceptances > 0)

let test_run_moves_zero_iterations () =
  let r, _ = run_moves_quadratic 1 0 in
  check_float "best is initial" ((50.0 -. 7.0) ** 2.0) r.Annealer.mv_best_cost;
  check_bool "one evaluation" true (r.Annealer.mv_evaluations = 1)

let test_run_moves_should_stop () =
  let r, _ =
    run_moves_quadratic ~should_stop:(fun ~best_cost:_ ~step -> step >= 10) 2 1000
  in
  check_bool "stopped early" true (r.Annealer.mv_evaluations <= 11)

let prop_best_is_min_of_accepted =
  QCheck.Test.make ~name:"annealer best <= every accepted cost" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let accepted = ref [] in
      let r =
        Annealer.run
          ~on_accept:(fun _ ~cost ~step:_ -> accepted := cost :: !accepted)
          ~rng:(Rng.create ~seed)
          ~schedule:(Schedule.geometric ~t0:1000.0 ~alpha:0.98 ~t_min:1e-3)
          ~iterations:200 quadratic_problem
      in
      List.for_all (fun c -> r.Annealer.best_cost <= c +. 1e-9) !accepted)

let suite =
  [
    ("geometric schedule", `Quick, test_geometric);
    ("geometric rejects bad parameters", `Quick, test_geometric_invalid);
    ("constant schedule", `Quick, test_constant);
    ("negative step raises", `Quick, test_negative_step);
    ("annealer finds a quadratic minimum", `Quick, test_annealer_finds_minimum);
    ("annealer statistics are consistent", `Quick, test_annealer_statistics);
    ("annealer is deterministic per seed", `Quick, test_annealer_deterministic);
    ("zero iterations returns the initial state", `Quick, test_annealer_zero_iterations);
    ("on_accept hook fires per acceptance", `Quick, test_annealer_on_accept_hook);
    ("should_stop ends the run early", `Quick, test_annealer_should_stop);
    ("greedy at low temperature", `Quick, test_annealer_greedy_at_low_temp);
    ("run_moves finds a quadratic minimum", `Quick, test_run_moves_finds_minimum);
    ("run_moves mirrors run decision-for-decision", `Quick, test_run_moves_matches_run);
    ("run_moves statistics are consistent", `Quick, test_run_moves_statistics);
    ("run_moves zero iterations", `Quick, test_run_moves_zero_iterations);
    ("run_moves should_stop ends early", `Quick, test_run_moves_should_stop);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_best_is_min_of_accepted ]
