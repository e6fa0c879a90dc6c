(* Domain pool over stdlib primitives only (plus Unix for the
   per-worker wall clocks).

   Scheduling is one shared counter per batch: every participating
   worker, the caller included, claims the next task index with
   [Atomic.fetch_and_add] until the counter passes the batch size.  The
   pool's batches are a handful of heavyweight tasks (backup restarts,
   walk advances, per-placement audits and repairs), so one claim per
   task costs nothing beside the work and balances as well as any
   finer scheme: a worker stuck on a long task simply stops claiming
   while the others drain the rest.

   Determinism is unaffected by which worker claims what: a task's work
   is a function of its index (the caller's contract), each task writes
   its own result slot, and the caller reads results in index order.

   Batches are published under [mutex]: the caller installs the batch
   closure, bumps [epoch] and broadcasts [wake].  The final mutex
   handshake (worker decrements [active] under the lock, caller waits
   for it to reach zero) establishes the happens-before edge that makes
   the workers' plain writes into the result array — and into their
   stats records — visible to the caller.

   Per-worker scratch ([errors], [stats]) is allocated once at pool
   creation and reused for every batch; a batch allocates only its
   counter and result array. *)

type worker_stats = {
  mutable st_tasks : int;
  mutable st_batches : int;
  mutable st_minor_words : float;
  mutable st_busy : float;
}

type stats = {
  tasks : int;
  steals : int;
  batches : int;
  minor_words : float;
  busy_seconds : float;
}

type batch = {
  body : int -> int -> unit; (* worker slot -> task index *)
  n : int;
  next : int Atomic.t; (* the next unclaimed task index *)
}

type t = {
  size : int; (* workers including the calling domain *)
  mutex : Mutex.t;
  wake : Condition.t; (* a new batch (or shutdown) is published *)
  finished : Condition.t; (* every spawned worker left the batch *)
  mutable batch : batch option;
  mutable active : int; (* spawned workers still in the batch *)
  mutable epoch : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  errors : (int * exn) option array; (* per-worker: lowest failing task *)
  stats : worker_stats array;
}

let default_jobs_cap = 8

let default_jobs () = max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let jobs t = t.size

let fresh_stats () = { st_tasks = 0; st_batches = 0; st_minor_words = 0.0; st_busy = 0.0 }

let stats t =
  Array.map
    (fun w ->
      {
        tasks = w.st_tasks;
        steals = 0;
        batches = w.st_batches;
        minor_words = w.st_minor_words;
        busy_seconds = w.st_busy;
      })
    t.stats

let reset_stats t =
  Array.iter
    (fun w ->
      w.st_tasks <- 0;
      w.st_batches <- 0;
      w.st_minor_words <- 0.0;
      w.st_busy <- 0.0)
    t.stats

(* Claim and run task indices on worker [slot] until the batch is
   drained, recording the lowest failing index into the worker's error
   scratch.  Indices are claimed in increasing order, so a worker's
   first failure is its lowest. *)
let run_share t { body; n; next } ~slot =
  let st = t.stats.(slot) in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  st.st_batches <- st.st_batches + 1;
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      st.st_tasks <- st.st_tasks + 1;
      (try body slot i
       with exn -> if Option.is_none t.errors.(slot) then t.errors.(slot) <- Some (i, exn));
      loop ()
    end
  in
  loop ();
  st.st_busy <- st.st_busy +. (Unix.gettimeofday () -. t0);
  st.st_minor_words <- st.st_minor_words +. (Gc.minor_words () -. w0)

let worker t slot =
  let rec loop seen =
    Mutex.lock t.mutex;
    while (not t.stopping) && t.epoch = seen do
      Condition.wait t.wake t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      let epoch = t.epoch in
      let batch = Option.get t.batch in
      Mutex.unlock t.mutex;
      run_share t batch ~slot;
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex;
      loop epoch
    end
  in
  loop 0

let create ?jobs () =
  let size = match jobs with None -> default_jobs () | Some j -> j in
  if size < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      size;
      mutex = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      batch = None;
      active = 0;
      epoch = 0;
      stopping = false;
      workers = [];
      errors = Array.make size None;
      stats = Array.init size (fun _ -> fresh_stats ());
    }
  in
  if size > 1 then
    t.workers <-
      List.init (size - 1) (fun slot -> Domain.spawn (fun () -> worker t slot));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body slot 0 .. body slot (n-1)] across the pool and re-raise
   the failure of the lowest failing task index, if any.  Every spawned
   worker joins every batch; the caller takes the last slot. *)
let run_batch t ~n body =
  if t.stopping then invalid_arg "Pool: used after shutdown";
  let batch = { body; n; next = Atomic.make 0 } in
  Array.fill t.errors 0 t.size None;
  Mutex.lock t.mutex;
  t.batch <- Some batch;
  t.active <- t.size - 1;
  t.epoch <- t.epoch + 1;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  run_share t batch ~slot:(t.size - 1);
  Mutex.lock t.mutex;
  while t.active > 0 do
    Condition.wait t.finished t.mutex
  done;
  t.batch <- None;
  Mutex.unlock t.mutex;
  let first =
    Array.fold_left
      (fun acc e ->
        match (acc, e) with
        | Some (i, _), Some (j, _) when j > i -> acc
        | _, None -> acc
        | _, e -> e)
      None t.errors
  in
  Option.iter (fun (_, exn) -> raise exn) first

let map t f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_batch t ~n (fun worker i -> out.(i) <- Some (f ~worker tasks.(i)));
    Array.map (function Some v -> v | None -> assert false (* run_batch raised *)) out
  end
