(* Domain pool over stdlib primitives only (plus Unix for the
   per-worker wall clocks).

   Scheduling is chunked work-stealing over per-worker ranges.  A batch
   of [n] tasks is split into [participants] contiguous spans, one per
   participating worker; each span lives in a packed (lo, hi) atomic.
   The owner pops chunks of [chunk] tasks from the *front* of its own
   range; a worker whose range has drained steals chunks from the
   *back* of a victim's range, scanning victims in a fixed order.  Both
   claims are a single compare-and-set on the packed word, so every
   task index is claimed exactly once and — because lo only ever grows
   and hi only ever shrinks within a batch — a stale CAS can never
   succeed.  In the common case the owner's CAS is uncontended: workers
   touch each other's cache lines only when they actually steal.

   Determinism is unaffected by stealing: a task's work is a function
   of its index (the caller's contract), each task writes its own
   result slot, and the caller folds results in index order.  Stealing
   only changes *which domain* runs an index, never what the index
   computes.

   Batches are published under [mutex]: the caller installs the batch
   closure, bumps [epoch] and signals exactly the participating
   workers on their own condition variables (workers a small batch
   does not need are never woken).  The final mutex handshake (worker
   decrements [active] under the lock, caller waits for it to reach
   zero) establishes the happens-before edge that makes the workers'
   plain writes into the result array — and into their stats records —
   visible to the caller.

   Per-worker scratch ([errors], [stats], the deque atomics) is
   allocated once at pool creation and reused for every batch; a batch
   allocates only its result array. *)

let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

(* (lo, hi) ranges packed into one OCaml int: lo in the upper bits, hi
   in the lower 31.  Task counts are capped accordingly (far above any
   real batch). *)
let range_bits = 31
let range_mask = (1 lsl range_bits) - 1
let max_tasks = range_mask

let[@inline] pack ~lo ~hi = (lo lsl range_bits) lor hi
let[@inline] unpack_lo p = p lsr range_bits
let[@inline] unpack_hi p = p land range_mask

type worker_stats = {
  mutable st_tasks : int;
  mutable st_chunks : int;
  mutable st_steals : int;
  mutable st_batches : int;
  mutable st_minor_words : float;
  mutable st_busy : float;
}

type stats = {
  tasks : int;
  chunks : int;
  steals : int;
  batches : int;
  minor_words : float;
  busy_seconds : float;
}

type t = {
  size : int; (* workers including the calling domain *)
  mutex : Mutex.t;
  conds : Condition.t array; (* one per spawned worker: targeted wakeups *)
  finished : Condition.t; (* all participating workers drained the batch *)
  mutable batch : (int -> int -> unit) option; (* worker slot -> task index *)
  mutable n_tasks : int;
  mutable chunk : int; (* scheduling grain of the current batch *)
  mutable participants : int; (* worker slots 0 .. participants-1 are in the batch *)
  deques : int Atomic.t array; (* per-slot packed (lo, hi) ranges *)
  mutable active : int; (* spawned participants still in the batch *)
  mutable epoch : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  errors : (int * exn) option array; (* per-worker: lowest failing task *)
  stats : worker_stats array;
  (* Auto-tuned divisor behind the default scheduling grain
     [n / (size * chunk_divisor)].  Retuned after every default-grain
     batch from that batch's steal/chunk ratio: heavy stealing means
     the split was too coarse to balance (finer chunks), near-zero
     stealing means claim traffic is pure overhead (coarser chunks).
     Scheduling grain never affects results, so tuning is invisible in
     the output — only in the claim/steal counters. *)
  mutable chunk_divisor : int;
}

let min_chunk_divisor = 2
let max_chunk_divisor = 32

let default_jobs_cap = 8

let default_jobs () = max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let jobs t = t.size

let fresh_stats () =
  {
    st_tasks = 0;
    st_chunks = 0;
    st_steals = 0;
    st_batches = 0;
    st_minor_words = 0.0;
    st_busy = 0.0;
  }

let stats t =
  Array.map
    (fun w ->
      {
        tasks = w.st_tasks;
        chunks = w.st_chunks;
        steals = w.st_steals;
        batches = w.st_batches;
        minor_words = w.st_minor_words;
        busy_seconds = w.st_busy;
      })
    t.stats

let reset_stats t =
  Array.iter
    (fun w ->
      w.st_tasks <- 0;
      w.st_chunks <- 0;
      w.st_steals <- 0;
      w.st_batches <- 0;
      w.st_minor_words <- 0.0;
      w.st_busy <- 0.0)
    t.stats

(* Run the tasks of [lo, hi) on worker [slot], recording the lowest
   failing index into the worker's error scratch. *)
let run_chunk t body ~slot ~lo ~hi =
  let st = t.stats.(slot) in
  st.st_chunks <- st.st_chunks + 1;
  st.st_tasks <- st.st_tasks + (hi - lo);
  for i = lo to hi - 1 do
    try body slot i
    with exn -> (
      match t.errors.(slot) with
      | Some (j, _) when j < i -> ()
      | _ -> t.errors.(slot) <- Some (i, exn))
  done

(* Pop one chunk from the front of [victim]'s range ([steal = false],
   owner path) or from the back ([steal = true], thief path).  Returns
   false when the range is empty. *)
let rec claim t body ~slot ~victim ~steal =
  let dq = t.deques.(victim) in
  let p = Atomic.get dq in
  let lo = unpack_lo p and hi = unpack_hi p in
  if lo >= hi then false
  else begin
    let c = imin t.chunk (hi - lo) in
    let p' = if steal then pack ~lo ~hi:(hi - c) else pack ~lo:(lo + c) ~hi in
    if Atomic.compare_and_set dq p p' then begin
      if steal then begin
        t.stats.(slot).st_steals <- t.stats.(slot).st_steals + 1;
        run_chunk t body ~slot ~lo:(hi - c) ~hi
      end
      else run_chunk t body ~slot ~lo ~hi:(lo + c);
      true
    end
    else claim t body ~slot ~victim ~steal (* lost the CAS; re-read the range *)
  end

(* Drain the batch from worker [slot]: own range first, then steal
   sweeps over the other participants in a fixed order.  Exits when a
   full sweep finds every range empty — at that point every task is
   claimed (claimed-but-running tasks finish on their claimant, which
   the caller's [active]/[finished] handshake waits out). *)
let run_share t ~slot =
  let body = Option.get t.batch in
  let st = t.stats.(slot) in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  st.st_batches <- st.st_batches + 1;
  while claim t body ~slot ~victim:slot ~steal:false do
    ()
  done;
  let parts = t.participants in
  if parts > 1 then begin
    let progress = ref true in
    while !progress do
      progress := false;
      for k = 1 to parts - 1 do
        let victim = (slot + k) mod parts in
        if claim t body ~slot ~victim ~steal:true then progress := true
      done
    done
  end;
  st.st_busy <- st.st_busy +. (Unix.gettimeofday () -. t0);
  st.st_minor_words <- st.st_minor_words +. (Gc.minor_words () -. w0)

let worker t slot =
  let rec loop seen =
    Mutex.lock t.mutex;
    while (not t.stopping) && t.epoch = seen do
      Condition.wait t.conds.(slot) t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      let epoch = t.epoch in
      (* only participants were signalled, but guard anyway: a
         non-participant that wakes up just records the epoch *)
      let participating = slot < t.participants - 1 in
      Mutex.unlock t.mutex;
      if participating then begin
        run_share t ~slot;
        Mutex.lock t.mutex;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.signal t.finished;
        Mutex.unlock t.mutex
      end;
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
      conds = Array.init (max 1 (size - 1)) (fun _ -> Condition.create ());
      finished = Condition.create ();
      batch = None;
      n_tasks = 0;
      chunk = 1;
      participants = 0;
      deques = Array.init size (fun _ -> Atomic.make 0);
      active = 0;
      epoch = 0;
      stopping = false;
      workers = [];
      errors = Array.make size None;
      stats = Array.init size (fun _ -> fresh_stats ());
      chunk_divisor = 8;
    }
  in
  if size > 1 then
    t.workers <-
      List.init (size - 1) (fun slot -> Domain.spawn (fun () -> worker t slot));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Array.iter Condition.broadcast t.conds;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body slot 0 .. body slot (n-1)] across the pool and re-raise
   the failure of the lowest failing task index, if any.  [chunk] is
   the scheduling grain: tasks are claimed (and stolen) [chunk] at a
   time. *)
let steal_chunk_totals t =
  Array.fold_left (fun (s, c) w -> (s + w.st_steals, c + w.st_chunks)) (0, 0) t.stats

(* One retuning step from the finished batch's steal ratio.  The
   thresholds bracket a wide dead band so the divisor settles instead
   of oscillating; doubling/halving converges in a few batches from
   either extreme. *)
let retune t ~steals ~chunks =
  if chunks > 0 then begin
    let ratio = float_of_int steals /. float_of_int chunks in
    if ratio > 0.25 then
      t.chunk_divisor <- imin max_chunk_divisor (t.chunk_divisor * 2)
    else if ratio < 0.05 then
      t.chunk_divisor <- imax min_chunk_divisor (t.chunk_divisor / 2)
  end

let chunk_divisor t = t.chunk_divisor

let run_batch t ?chunk ~n body =
  if t.stopping then invalid_arg "Pool: used after shutdown";
  if n > max_tasks then invalid_arg "Pool: batch too large";
  let auto = chunk = None in
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Pool: chunk must be >= 1"
    | None -> imax 1 (n / (t.size * t.chunk_divisor))
  in
  if n <= 0 then ()
  else if t.size = 1 then begin
    (* sequential fast path: in order, exceptions propagate directly
       (the first to raise is necessarily the lowest index) *)
    let st = t.stats.(0) in
    st.st_tasks <- st.st_tasks + n;
    st.st_chunks <- st.st_chunks + 1;
    st.st_batches <- st.st_batches + 1;
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      body 0 i
    done;
    st.st_busy <- st.st_busy +. (Unix.gettimeofday () -. t0);
    st.st_minor_words <- st.st_minor_words +. (Gc.minor_words () -. w0)
  end
  else begin
    Array.fill t.errors 0 t.size None;
    let steals0, chunks0 = if auto then steal_chunk_totals t else (0, 0) in
    (* Never wake more workers than there are chunks to run.  The
       caller always participates and takes the last slot, so slots
       0 .. parts-2 belong to spawned workers. *)
    let parts = imin t.size (imax 1 ((n + chunk - 1) / chunk)) in
    (* even contiguous split of [0, n) across the participants *)
    for p = 0 to parts - 1 do
      Atomic.set t.deques.(p) (pack ~lo:(p * n / parts) ~hi:((p + 1) * n / parts))
    done;
    Mutex.lock t.mutex;
    t.batch <- Some body;
    t.n_tasks <- n;
    t.chunk <- chunk;
    t.participants <- parts;
    t.active <- parts - 1;
    t.epoch <- t.epoch + 1;
    for w = 0 to parts - 2 do
      Condition.signal t.conds.(w)
    done;
    Mutex.unlock t.mutex;
    run_share t ~slot:(parts - 1);
    Mutex.lock t.mutex;
    while t.active > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    (* the finished handshake above makes the workers' stats writes
       visible, so the batch's steal/chunk delta is exact *)
    (if auto && parts > 1 then begin
       let steals1, chunks1 = steal_chunk_totals t in
       retune t ~steals:(steals1 - steals0) ~chunks:(chunks1 - chunks0)
     end);
    let first =
      Array.fold_left
        (fun acc e ->
          match (acc, e) with
          | Some (i, _), Some (j, _) -> if j < i then e else acc
          | None, e -> e
          | acc, None -> acc)
        None t.errors
    in
    match first with None -> () | Some (_, exn) -> raise exn
  end

let map_chunked t ?chunk f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_batch t ?chunk ~n (fun worker i -> out.(i) <- Some (f ~worker tasks.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* run_batch raised *))
      out
  end

let map t f tasks = map_chunked t (fun ~worker:_ x -> f x) tasks

let map_reduce t ~map:f ~fold ~init tasks =
  Array.fold_left fold init (map t f tasks)
