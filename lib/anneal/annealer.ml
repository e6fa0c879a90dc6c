open Mps_rng

type 'a problem = {
  initial : 'a;
  cost : 'a -> float;
  neighbor : Rng.t -> 'a -> 'a;
}

type 'a result = {
  best : 'a;
  best_cost : float;
  final : 'a;
  final_cost : float;
  average_cost : float;
  evaluations : int;
  acceptances : int;
}

type 'm move_problem = {
  propose : Rng.t -> 'm;
  delta_cost : 'm -> float;
  commit : 'm -> unit;
  reject : 'm -> unit;
}

type move_result = {
  mv_best_cost : float;
  mv_final_cost : float;
  mv_average_cost : float;
  mv_evaluations : int;
  mv_acceptances : int;
}

(* Loop accumulators.  An all-float record is stored flat (every field
   unboxed), so mutating it inside the move loop allocates nothing —
   unlike [float ref], whose every [:=] boxes a fresh float.  [traw]
   carries the geometric temperature, advanced by one multiply per
   step instead of recomputing [t0 *. alpha ** step] with a [**] per
   move. *)
type acc = {
  mutable cur : float; (* current cost *)
  mutable bst : float; (* best cost *)
  mutable sum : float; (* cost sum for the average *)
  mutable traw : float; (* geometric temperature before the t_min clamp *)
}

let[@inline] next_temp (schedule : Schedule.t) acc =
  let v = Float.max schedule.t_min acc.traw in
  acc.traw <- acc.traw *. schedule.alpha;
  v

let run_moves ?(on_improve = fun ~cost:_ ~step:_ -> ())
    ?(should_stop = fun ~best_cost:_ ~step:_ -> false) ~rng ~schedule ~iterations
    ~initial_cost problem =
  if iterations < 0 then invalid_arg "Annealer.run_moves: negative iteration count";
  let a =
    { cur = initial_cost; bst = initial_cost; sum = initial_cost; traw = schedule.Schedule.t0 }
  in
  let evaluations = ref 1 in
  let acceptances = ref 0 in
  let step = ref 0 in
  let continue = ref true in
  while !continue && !step < iterations do
    if should_stop ~best_cost:a.bst ~step:!step then continue := false
    else begin
      let m = problem.propose rng in
      let dc = problem.delta_cost m in
      let cost = a.cur +. dc in
      a.sum <- a.sum +. cost;
      incr evaluations;
      let temp = next_temp schedule a in
      let accept = dc <= 0.0 || Rng.float rng 1.0 < exp (-.dc /. temp) in
      if accept then begin
        problem.commit m;
        a.cur <- cost;
        incr acceptances;
        if cost < a.bst then begin
          a.bst <- cost;
          on_improve ~cost ~step:!step
        end
      end
      else problem.reject m;
      incr step
    end
  done;
  {
    mv_best_cost = a.bst;
    mv_final_cost = a.cur;
    mv_average_cost = a.sum /. float_of_int !evaluations;
    mv_evaluations = !evaluations;
    mv_acceptances = !acceptances;
  }

let run ?(on_accept = fun _ ~cost:_ ~step:_ -> ()) ?(should_stop = fun ~best_cost:_ ~step:_ -> false)
    ~rng ~schedule ~iterations problem =
  if iterations < 0 then invalid_arg "Annealer.run: negative iteration count";
  let current = ref problem.initial in
  let initial_cost = problem.cost problem.initial in
  let a =
    { cur = initial_cost; bst = initial_cost; sum = initial_cost; traw = schedule.Schedule.t0 }
  in
  let best = ref !current in
  let evaluations = ref 1 in
  let acceptances = ref 0 in
  let step = ref 0 in
  let continue = ref true in
  while !continue && !step < iterations do
    if should_stop ~best_cost:a.bst ~step:!step then continue := false
    else begin
      let candidate = problem.neighbor rng !current in
      let cost = problem.cost candidate in
      a.sum <- a.sum +. cost;
      incr evaluations;
      let dc = cost -. a.cur in
      let temp = next_temp schedule a in
      let accept = dc <= 0.0 || Rng.float rng 1.0 < exp (-.dc /. temp) in
      if accept then begin
        current := candidate;
        a.cur <- cost;
        incr acceptances;
        on_accept candidate ~cost ~step:!step;
        if cost < a.bst then begin
          best := candidate;
          a.bst <- cost
        end
      end;
      incr step
    end
  done;
  {
    best = !best;
    best_cost = a.bst;
    final = !current;
    final_cost = a.cur;
    average_cost = a.sum /. float_of_int !evaluations;
    evaluations = !evaluations;
    acceptances = !acceptances;
  }
