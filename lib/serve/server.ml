open Mps_geometry
open Mps_netlist
open Mps_core

exception Worker_killed

type addr =
  | Unix_path of string
  | Tcp of string * int

type config = {
  workers : int;
  max_connections : int;
  max_inflight : int;
  idle_timeout : float;
  drain_timeout : float;
  accept_retry_delay : float;
  restart_base_delay : float;
  restart_max_delay : float;
  breaker_window : float;
  breaker_max_restarts : int;
}

let default_config =
  {
    workers = 1;
    max_connections = 64;
    max_inflight = 32;
    idle_timeout = 30.0;
    drain_timeout = 10.0;
    accept_retry_delay = 0.05;
    restart_base_delay = 0.05;
    restart_max_delay = 2.0;
    breaker_window = 10.0;
    breaker_max_restarts = 5;
  }

(* Fixed serving limits: pending connections per worker queue, and
   queries per batch request. *)
let queue_capacity = 16
let max_batch = 65536

type stats = {
  accepted : int;
  shed_connections : int;
  requests_served : int;
  queries_served : int;
  degraded_served : int;
  timeouts : int;
  overloaded : int;
  bad_requests : int;
  store_errors : int;
  connection_crashes : int;
  accept_failures : int;
  dispatched : int;
  worker_crashes : int;
  worker_restarts : int;
  worker_lost_replies : int;
  breaker_trips : int;
  shm_sessions : int;
  shm_served : int;
  shm_reaped : int;
  shm_doorbells : int;
}

type counters = {
  c_accepted : int Atomic.t;
  c_shed_connections : int Atomic.t;
  c_requests_served : int Atomic.t;
  c_queries_served : int Atomic.t;
  c_degraded_served : int Atomic.t;
  c_timeouts : int Atomic.t;
  c_overloaded : int Atomic.t;
  c_bad_requests : int Atomic.t;
  c_store_errors : int Atomic.t;
  c_connection_crashes : int Atomic.t;
  c_accept_failures : int Atomic.t;
  c_dispatched : int Atomic.t;
  c_worker_crashes : int Atomic.t;
  c_worker_restarts : int Atomic.t;
  c_worker_lost_replies : int Atomic.t;
  c_breaker_trips : int Atomic.t;
  c_shm_sessions : int Atomic.t;
  c_shm_served : int Atomic.t;
  c_shm_reaped : int Atomic.t;
  c_shm_doorbells : int Atomic.t;
}

let bump a = Atomic.incr a
let add a n = ignore (Atomic.fetch_and_add a n)

type conn = { conn_id : int; fd : Unix.file_descr }

(* One spawn of a worker domain.  Connection handlers capture the
   generation they were spawned under; a crash kills the generation
   (the atomic flips false), never the slot — the slot is respawned
   with a fresh generation and the old handlers see only their own. *)
type generation = { g_epoch : int; g_alive : bool Atomic.t }

type worker = {
  slot : int;
  q : Unix.file_descr Queue.t;  (* accepted, not yet picked up; bounded *)
  mutable gen : generation;
  mutable state : Wire.worker_state;
  mutable restarts : int;
  mutable restart_at : float;  (* when [W_restarting]: earliest respawn *)
  mutable domain : unit Domain.t option;
  conns : (int, conn) Hashtbl.t;  (* live on this worker *)
  threads : (int, Thread.t) Hashtbl.t;  (* handler threads, joined by the domain *)
}

type t = {
  config : config;
  transport : Transport.t;
  the_store : Store.t;
  listen_fd : Unix.file_descr;
  addr : addr;
  stopping : bool Atomic.t;  (* the drain flag: accept loop, workers, supervision *)
  aborted : bool Atomic.t;
  wake_r : Unix.file_descr;  (* self-pipe: [stop] wakes the accept loop *)
  wake_w : Unix.file_descr;
  fault : (worker:int -> unit) option;
  mutex : Mutex.t;
  cond : Condition.t;
  workers : worker array;
  mutable rr : int;  (* round-robin tiebreak for dispatch *)
  mutable breaker : bool;
  mutable total_spawns : int;
  crash_log : float Queue.t;  (* crash instants inside the breaker window *)
  next_conn_id : int Atomic.t;
  inflight : int Atomic.t;
  c : counters;
  shm_dir : string option;  (* session directory; [None]: hellos declined *)
  shm_hooks : Shm.hooks;
  mutable sup_thread : Thread.t option;
}

let stats t =
  {
    accepted = Atomic.get t.c.c_accepted;
    shed_connections = Atomic.get t.c.c_shed_connections;
    requests_served = Atomic.get t.c.c_requests_served;
    queries_served = Atomic.get t.c.c_queries_served;
    degraded_served = Atomic.get t.c.c_degraded_served;
    timeouts = Atomic.get t.c.c_timeouts;
    overloaded = Atomic.get t.c.c_overloaded;
    bad_requests = Atomic.get t.c.c_bad_requests;
    store_errors = Atomic.get t.c.c_store_errors;
    connection_crashes = Atomic.get t.c.c_connection_crashes;
    accept_failures = Atomic.get t.c.c_accept_failures;
    dispatched = Atomic.get t.c.c_dispatched;
    worker_crashes = Atomic.get t.c.c_worker_crashes;
    worker_restarts = Atomic.get t.c.c_worker_restarts;
    worker_lost_replies = Atomic.get t.c.c_worker_lost_replies;
    breaker_trips = Atomic.get t.c.c_breaker_trips;
    shm_sessions = Atomic.get t.c.c_shm_sessions;
    shm_served = Atomic.get t.c.c_shm_served;
    shm_reaped = Atomic.get t.c.c_shm_reaped;
    shm_doorbells = Atomic.get t.c.c_shm_doorbells;
  }

let bound_addr t = t.addr
let store t = t.the_store

(* ---- replies ---------------------------------------------------- *)

let prefix = Wire.frame_prefix_bytes
let header = Wire.reply_header_bytes

(* Where a reply goes: the connection's socket, or its shm ring (with
   the socket kept as fallback for replies the ring cannot carry — a
   ring frame is capped at half the ring, a socket frame at
   {!Wire.max_frame_default}, and the client matches replies by request
   id on both channels at once).  A ring reply to a parked client is
   followed by the doorbell: a zero-length frame on the socket it is
   blocked on.  A ring reply waiting for space watches that socket, so
   a client that died with its reply ring full ends the wait. *)
type reply_via =
  | Via_sock of Unix.file_descr
  | Via_ring of Shm.t * Unix.file_descr

let send_reply t via outbuf ~status ~req_id ~epoch ~payload_len =
  Wire.ensure outbuf (prefix + payload_len);
  let b = !outbuf in
  Wire.set_u8 b prefix (Wire.status_to_int status);
  Wire.set_u32 b (prefix + 1) req_id;
  Wire.set_u32 b (prefix + 5) epoch;
  match via with
  | Via_sock fd -> Wire.send_frame t.transport fd b ~payload_len
  | Via_ring (ring, fd) ->
    if Shm.tx_fits ring ~len:payload_len then begin
      Shm.send ~control:fd ring b ~off:prefix ~len:payload_len;
      if Shm.ring_doorbell ring t.transport fd then bump t.c.c_shm_doorbells
    end
    else Wire.send_frame t.transport fd b ~payload_len

let send_error t via outbuf ~status ~req_id msg =
  let payload_len = Wire.put_string16 outbuf (prefix + header) msg - prefix in
  (match status with
  | Wire.Err_timeout -> bump t.c.c_timeouts
  | Wire.Err_overloaded -> bump t.c.c_overloaded
  | Wire.Err_bad_request -> bump t.c.c_bad_requests
  | Wire.Err_unknown_circuit | Wire.Err_store -> bump t.c.c_store_errors
  | Wire.Err_worker_lost -> bump t.c.c_worker_lost_replies
  | _ -> ());
  send_reply t via outbuf ~status ~req_id ~epoch:0 ~payload_len

(* Farewell on a shed or draining connection: best effort, then close. *)
let farewell t fd status msg =
  let outbuf = ref (Bytes.create 64) in
  (try
     let payload_len = Wire.put_string16 outbuf (prefix + header) msg - prefix in
     let b = !outbuf in
     Wire.set_u8 b prefix (Wire.status_to_int status);
     Wire.set_u32 b (prefix + 1) 0;
     Wire.set_u32 b (prefix + 5) 0;
     Wire.send_frame t.transport fd b ~payload_len
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let shutdown_fd ?(how = Unix.SHUTDOWN_ALL) fd =
  try Unix.shutdown fd how with Unix.Unix_error _ -> ()

(* ---- crash, backoff, breaker ------------------------------------ *)

(* All under [t.mutex]. *)

let prune_crash_log t now =
  while
    (not (Queue.is_empty t.crash_log))
    && Queue.peek t.crash_log < now -. t.config.breaker_window
  do
    ignore (Queue.pop t.crash_log)
  done

let trip_breaker t =
  if not t.breaker then begin
    t.breaker <- true;
    bump t.c.c_breaker_trips;
    (* Degraded single-worker mode: every slot but 0 is parked.  Their
       live connections finish what is in flight (receive side severed,
       send side left open for typed farewells) and then close. *)
    Array.iter
      (fun w ->
        if w.slot > 0 then begin
          (match w.state with
          | Wire.W_up ->
            Atomic.set w.gen.g_alive false;
            Hashtbl.iter (fun _ c -> shutdown_fd ~how:Unix.SHUTDOWN_RECEIVE c.fd) w.conns
          | Wire.W_restarting | Wire.W_disabled -> ());
          w.state <- Wire.W_disabled
        end)
      t.workers
  end

(* First observer of a dead generation marks it, severs the worker's
   receive sides (handlers wake with EOF; mid-batch handlers answer
   [Err_worker_lost] at their next checkpoint) and schedules the
   exponential-backoff respawn.  Idempotent per generation. *)
let crash t w gen =
  Mutex.lock t.mutex;
  (if w.gen == gen && Atomic.get gen.g_alive then begin
     Atomic.set gen.g_alive false;
     bump t.c.c_worker_crashes;
     let now = Unix.gettimeofday () in
     prune_crash_log t now;
     Queue.push now t.crash_log;
     let recent = Queue.length t.crash_log in
     let delay =
       Float.min t.config.restart_max_delay
         (t.config.restart_base_delay *. (2.0 ** float_of_int (max 0 (recent - 1))))
     in
     w.state <- Wire.W_restarting;
     w.restart_at <- now +. delay;
     Hashtbl.iter (fun _ c -> shutdown_fd ~how:Unix.SHUTDOWN_RECEIVE c.fd) w.conns;
     if recent > t.config.breaker_max_restarts then trip_breaker t;
     Condition.broadcast t.cond
   end);
  Mutex.unlock t.mutex

let kill_worker t slot =
  if slot < 0 || slot >= Array.length t.workers then false
  else begin
    let w = t.workers.(slot) in
    Mutex.lock t.mutex;
    let gen = w.gen in
    let up = w.state = Wire.W_up in
    Mutex.unlock t.mutex;
    if up then crash t w gen;
    up
  end

(* ---- request handling ------------------------------------------- *)

exception Deadline_hit
exception Worker_lost_hit

type conn_state = {
  session : Structure.Engine.session;
  handles : (int, string) Hashtbl.t;
  mutable next_handle : int;
  inbuf : Bytes.t ref;
  outbuf : Bytes.t ref;
  mutable w_scratch : int array;
  mutable h_scratch : int array;
  mutable ring : Shm.t option;  (* set by an accepted [Shm_hello] *)
}

let scratch_for state n =
  if Array.length state.w_scratch <> n then begin
    state.w_scratch <- Array.make n 1;
    state.h_scratch <- Array.make n 1
  end;
  (state.w_scratch, state.h_scratch)

let store_error_reply t via outbuf ~req_id err =
  let status =
    match err with
    | Store.Unknown_circuit _ -> Wire.Err_unknown_circuit
    | Store.Unreadable _ | Store.Corrupt _ -> Wire.Err_store
  in
  send_error t via outbuf ~status ~req_id (Store.error_to_string err)

let served t ~degraded ~queries =
  bump t.c.c_requests_served;
  add t.c.c_queries_served queries;
  if degraded then bump t.c.c_degraded_served

(* Decode the dims of query [i] straight out of the validated payload
   (bounds were checked once for the whole batch; dims are u16 on the
   wire).  The scratch arrays are aliased into the [Dims.t] without a
   copy — the engine reads dims only for the duration of the call, so
   the next query may safely overwrite them.  The zero-dim check is
   folded into the decode loop: [v - 1] is negative exactly when a u16
   is zero, and a bad request surfaces as [Invalid_argument]. *)
let dims_at buf ~base ~n i (w, h) =
  let off = base + (i * 4 * n) in
  let acc = ref 0 in
  for j = 0 to n - 1 do
    let wv = Bytes.get_uint16_le buf (off + (j * 4)) in
    let hv = Bytes.get_uint16_le buf (off + (j * 4) + 2) in
    w.(j) <- wv;
    h.(j) <- hv;
    acc := !acc lor (wv - 1) lor (hv - 1)
  done;
  if !acc < 0 then invalid_arg "zero dimension on the wire";
  Dims.unsafe_of_arrays ~w ~h

(* Batch checkpoint: the deadline and the worker's generation — a
   request on a dying worker stops with a typed [Err_worker_lost]
   instead of burning a dead domain's time. *)
let check_progress gen deadline =
  (match deadline with
  | Some d when Unix.gettimeofday () > d -> raise Deadline_hit
  | _ -> ());
  if not (Atomic.get gen.g_alive) then raise Worker_lost_hit

let handle_batch t gen via state ~req_id ~deadline ~len ~instantiate =
  let buf = !(state.inbuf) in
  let handle = Wire.get_u16 buf ~len 9 in
  let count = Wire.get_u32 buf ~len 11 in
  match Hashtbl.find_opt state.handles handle with
  | None ->
    send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id
      (Printf.sprintf "unknown handle %d (open the circuit first)" handle)
  | Some name -> (
    match Store.get t.the_store name with
    | Error err -> store_error_reply t via state.outbuf ~req_id err
    | Ok entry ->
      let n = Circuit.n_blocks entry.Store.circuit in
      let expected = 15 + (count * 4 * n) in
      if count > max_batch then
        send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id
          (Printf.sprintf "batch of %d exceeds the %d-query cap" count max_batch)
      else if len <> expected then
        send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id
          (Printf.sprintf "payload is %d bytes, %d expected for %d %d-block queries"
             len expected count n)
      else begin
        let scratch = scratch_for state n in
        let item = if instantiate then 16 * n else 4 in
        let body = header + 4 + (count * item) in
        Wire.ensure state.outbuf (prefix + body);
        let out = !(state.outbuf) in
        Wire.set_u32 out (prefix + header) count;
        let base = 15 in
        let out_base = prefix + header + 4 in
        let backup = Structure.Engine.backup entry.Store.engine in
        match
          for i = 0 to count - 1 do
            if i land 255 = 0 then check_progress gen deadline;
            let dims = dims_at buf ~base ~n i scratch in
            if instantiate then begin
              let rects =
                if entry.Store.backup_only then Stored.instantiate_repacked backup dims
                else
                  Structure.Engine.instantiate_into entry.Store.engine state.session
                    dims
              in
              let off = out_base + (i * item) in
              for j = 0 to n - 1 do
                let r = rects.(j) in
                Wire.set_i32 out (off + (j * 16)) r.Rect.x;
                Wire.set_i32 out (off + (j * 16) + 4) r.Rect.y;
                Wire.set_i32 out (off + (j * 16) + 8) r.Rect.w;
                Wire.set_i32 out (off + (j * 16) + 12) r.Rect.h
              done
            end
            else begin
              let id =
                if entry.Store.backup_only then
                  if Circuit.dims_valid entry.Store.circuit dims then -1 else -2
                else Structure.Engine.query_id entry.Store.engine state.session dims
              in
              Wire.set_i32 out (out_base + (i * item)) id
            end
          done
        with
        | () ->
          let degraded = entry.Store.degraded in
          served t ~degraded ~queries:count;
          send_reply t via state.outbuf
            ~status:(if degraded then Wire.Ok_degraded else Wire.Ok)
            ~req_id ~epoch:entry.Store.epoch ~payload_len:body
        | exception Deadline_hit ->
          send_error t via state.outbuf ~status:Wire.Err_timeout ~req_id
            "deadline expired mid-batch"
        | exception Worker_lost_hit ->
          send_error t via state.outbuf ~status:Wire.Err_worker_lost ~req_id
            "worker lost mid-batch"
        | exception Invalid_argument m ->
          send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id
            (Printf.sprintf "bad dimension vector: %s" m)
      end)

let handle_open t via state ~req_id ~len =
  let buf = !(state.inbuf) in
  let name, _ = Wire.get_string16 buf ~len 9 in
  match Store.get t.the_store name with
  | Error err -> store_error_reply t via state.outbuf ~req_id err
  | Ok entry ->
    if state.next_handle > 0xffff then
      send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id
        "handle space exhausted on this connection"
    else begin
      let handle = state.next_handle in
      state.next_handle <- handle + 1;
      Hashtbl.replace state.handles handle name;
      let body = header + 9 in
      Wire.ensure state.outbuf (prefix + body);
      let out = !(state.outbuf) in
      Wire.set_u16 out (prefix + header) handle;
      Wire.set_u8 out (prefix + header + 2) (if entry.Store.degraded then 1 else 0);
      Wire.set_u16 out (prefix + header + 3) (Circuit.n_blocks entry.Store.circuit);
      Wire.set_u32 out (prefix + header + 5)
        (Structure.Engine.n_stored entry.Store.engine);
      served t ~degraded:entry.Store.degraded ~queries:0;
      send_reply t via state.outbuf
        ~status:(if entry.Store.degraded then Wire.Ok_degraded else Wire.Ok)
        ~req_id ~epoch:entry.Store.epoch ~payload_len:body
    end

let handle_reload t via state ~req_id ~len =
  let buf = !(state.inbuf) in
  let name, _ = Wire.get_string16 buf ~len 9 in
  match Store.reload t.the_store name with
  | Error err -> store_error_reply t via state.outbuf ~req_id err
  | Ok entry ->
    let body = header + 1 in
    Wire.ensure state.outbuf (prefix + body);
    Wire.set_u8 !(state.outbuf) (prefix + header)
      (if entry.Store.degraded then 1 else 0);
    served t ~degraded:entry.Store.degraded ~queries:0;
    send_reply t via state.outbuf
      ~status:(if entry.Store.degraded then Wire.Ok_degraded else Wire.Ok)
      ~req_id ~epoch:entry.Store.epoch ~payload_len:body

(* Negotiate the shm fast path: allocate this connection's ring file
   and tell the client where to map it.  Declined — typed, on the
   wire, accepted=0 — when shm is disabled, when the hello did not
   arrive on the socket, when the session already has a ring, or when
   the hello's body is not this build's ring version (a u32); the
   client then simply stays on the socket. *)
let handle_shm_hello t conn state ~req_id ~via ~len =
  let answer ring =
    let o = prefix + header in
    let body_end =
      match ring with
      | None ->
        Wire.ensure state.outbuf (o + 1);
        o + 1
      | Some r -> Wire.put_string16 state.outbuf (o + 5) (Shm.path r)
    in
    let out = !(state.outbuf) in
    (match ring with
    | None -> Wire.set_u8 out o 0
    | Some r ->
      Wire.set_u8 out o 1;
      Wire.set_u32 out (o + 1) (Shm.ring_words_of_t r));
    served t ~degraded:false ~queries:0;
    send_reply t via state.outbuf ~status:Wire.Ok ~req_id ~epoch:0
      ~payload_len:(body_end - prefix)
  in
  let version =
    try Wire.get_u32 !(state.inbuf) ~len Wire.request_header_bytes
    with Wire.Truncated _ -> -1
  in
  match (t.shm_dir, via, state.ring) with
  | Some dir, Via_sock _, None when version = Shm.version -> (
    let path = Filename.concat dir (Printf.sprintf "sess-%d.ring" conn.conn_id) in
    match Shm.create ~hooks:t.shm_hooks ~path () with
    | ring ->
      state.ring <- Some ring;
      bump t.c.c_shm_sessions;
      answer (Some ring)
    | exception (Sys_error _ | Invalid_argument _) -> answer None)
  | _ -> answer None

(* ---- health ------------------------------------------------------ *)

let health t =
  Mutex.lock t.mutex;
  let workers =
    Array.map
      (fun w ->
        {
          Wire.w_state = w.state;
          w_restarts = w.restarts;
          w_queue = Queue.length w.q;
          w_conns = Hashtbl.length w.conns;
          w_epoch = w.gen.g_epoch;
        })
      t.workers
  in
  let draining = Atomic.get t.stopping in
  let ready =
    (not draining) && Array.exists (fun w -> w.Wire.w_state = Wire.W_up) workers
  in
  let h =
    { Wire.ready; draining; breaker = t.breaker; epoch = t.total_spawns; workers }
  in
  Mutex.unlock t.mutex;
  h

let handle_health t via state ~req_id =
  let h = health t in
  let payload_len = Wire.put_health state.outbuf (prefix + header) h - prefix in
  served t ~degraded:false ~queries:0;
  send_reply t via state.outbuf ~status:Wire.Ok ~req_id ~epoch:0 ~payload_len

let stats_text t =
  let s = stats t in
  let h = health t in
  let st = Store.stat_counts t.the_store in
  Store.describe t.the_store
  ^ Printf.sprintf "staleness stats: %d by the refresher, %d on the request path\n"
      st.Store.refresher st.Store.request_path
  ^ Printf.sprintf
      "accepted %d, shed %d, served %d requests / %d queries (%d degraded), timeouts \
       %d, overloaded %d, bad %d, store errors %d, conn crashes %d, accept failures \
       %d\n\
       workers: %s\n\
       dispatched %d, worker crashes %d, restarts %d, worker-lost replies %d, breaker \
       trips %d\n\
       shm: %d sessions, %d requests served, %d reaped, %d doorbells\n"
      s.accepted s.shed_connections s.requests_served s.queries_served s.degraded_served
      s.timeouts s.overloaded s.bad_requests s.store_errors s.connection_crashes
      s.accept_failures (Wire.health_to_string h) s.dispatched s.worker_crashes
      s.worker_restarts s.worker_lost_replies s.breaker_trips s.shm_sessions
      s.shm_served s.shm_reaped s.shm_doorbells

let apply_fault t w =
  match t.fault with None -> () | Some hook -> hook ~worker:w.slot

let handle_request t w gen conn state ~via ~len =
  let buf = !(state.inbuf) in
  let now = Unix.gettimeofday () in
  match
    let opcode_i = Wire.get_u8 buf ~len 0 in
    let req_id = Wire.get_u32 buf ~len 1 in
    let deadline_us = Wire.get_u32 buf ~len 5 in
    (opcode_i, req_id, deadline_us)
  with
  | exception Wire.Truncated _ ->
    bump t.c.c_bad_requests;
    send_reply t via state.outbuf ~status:Wire.Err_bad_request ~req_id:0 ~epoch:0
      ~payload_len:
        (Wire.put_string16 state.outbuf (prefix + header) "short request header"
        - prefix)
  | opcode_i, req_id, deadline_us -> (
    let deadline =
      if deadline_us = 0 then None else Some (now +. (float_of_int deadline_us *. 1e-6))
    in
    let inflight = 1 + Atomic.fetch_and_add t.inflight 1 in
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.inflight)
      (fun () ->
        if Atomic.get t.stopping then
          send_error t via state.outbuf ~status:Wire.Err_shutting_down ~req_id
            "daemon is draining"
        else if not (Atomic.get gen.g_alive) then
          (* this worker died while the request was queued on the
             socket: a typed, retryable answer, not silence *)
          send_error t via state.outbuf ~status:Wire.Err_worker_lost ~req_id
            "worker crashed before serving"
        else if inflight > t.config.max_inflight then
          send_error t via state.outbuf ~status:Wire.Err_overloaded ~req_id
            (Printf.sprintf "%d requests in flight (limit %d)" inflight
               t.config.max_inflight)
        else
          match Wire.opcode_of_int opcode_i with
          | None ->
            send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id
              (Printf.sprintf "unknown opcode %d" opcode_i)
          | Some _ when deadline <> None && Unix.gettimeofday () > Option.get deadline
            ->
            (* expired before any work (queueing, a store load ahead of
               us): a typed timeout, not a late answer *)
            send_error t via state.outbuf ~status:Wire.Err_timeout ~req_id
              "deadline expired before serving"
          | Some opcode -> (
            match apply_fault t w with
            | exception Worker_killed ->
              (* the injected crash: answer the in-flight request with
                 the typed loss, then take the worker down *)
              send_error t via state.outbuf ~status:Wire.Err_worker_lost ~req_id
                "worker crashed mid-request";
              raise Worker_killed
            | () -> (
              match opcode with
              | Wire.Ping ->
                served t ~degraded:false ~queries:0;
                send_reply t via state.outbuf ~status:Wire.Ok ~req_id ~epoch:0
                  ~payload_len:header
              | Wire.Health -> handle_health t via state ~req_id
              | Wire.Shm_hello -> handle_shm_hello t conn state ~req_id ~via ~len
              | Wire.Open_circuit -> (
                match handle_open t via state ~req_id ~len with
                | () -> ()
                | exception Wire.Truncated m ->
                  send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id m)
              | Wire.Reload -> (
                match handle_reload t via state ~req_id ~len with
                | () -> ()
                | exception Wire.Truncated m ->
                  send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id m)
              | Wire.Stats ->
                let text = stats_text t in
                let payload_len =
                  Wire.put_string16 state.outbuf (prefix + header) text - prefix
                in
                served t ~degraded:false ~queries:0;
                send_reply t via state.outbuf ~status:Wire.Ok ~req_id ~epoch:0
                  ~payload_len
              | (Wire.Query_batch | Wire.Instantiate_batch) as op -> (
                let instantiate = op = Wire.Instantiate_batch in
                match handle_batch t gen via state ~req_id ~deadline ~len ~instantiate with
                | () -> ()
                | exception Wire.Truncated m ->
                  send_error t via state.outbuf ~status:Wire.Err_bad_request ~req_id m))
            )))

(* ---- connection lifecycle --------------------------------------- *)

let unregister t w conn =
  Mutex.lock t.mutex;
  Hashtbl.remove w.conns conn.conn_id;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

(* Ring-serving mode, entered after an accepted [Shm_hello]: drain the
   request ring, and watch the socket (now the control channel) when
   the ring runs dry.  The socket is the session's one liveness signal.
   Exits — and reaps the session: close flag, unlink — on client close
   (flag or socket EOF, the kill -9 case), idle timeout (a wedged
   client, and a control frame dribbled past it), generation death or
   drain.  A client whose attach failed is served on its socket until
   its connection ends.

   The loop waits in {!Shm.await}: spin, yield, then park in one 200 us
   [select] on the socket.  A client that publishes to a parked server
   rings the doorbell, a zero-length frame that ends the select at
   once; the woken await takes the request off the ring first, and the
   doorbell is read and dropped here on a later turn, once the ring is
   empty.  The select timeout is the backstop for a lost doorbell and
   paces the closed-flag and idle checks.  A streaming client is thus
   served with no syscall per request, and an idle session costs one
   [select] per 200 us. *)
let serve_ring t w gen conn state ring =
  let via = Via_ring (ring, conn.fd) in
  let idle_deadline = ref (Unix.gettimeofday () +. t.config.idle_timeout) in
  let continue = ref true in
  let serve ~via len =
    idle_deadline := Unix.gettimeofday () +. t.config.idle_timeout;
    match handle_request t w gen conn state ~via ~len with
    | () -> ()
    | exception Worker_killed ->
      crash t w gen;
      continue := false
  in
  (try
     while !continue && Atomic.get gen.g_alive && not (Atomic.get t.stopping) do
       match Shm.await ring conn.fd ~buf:state.inbuf with
       | Shm.Frame len ->
         bump t.c.c_shm_served;
         serve ~via len
       | Shm.Socket -> (
         match
           Wire.recv_frame t.transport ~deadline:!idle_deadline
             ~max_bytes:Wire.max_frame_default ~buf:state.inbuf conn.fd
         with
         | 0 -> () (* a doorbell *)
         | len -> serve ~via:(Via_sock conn.fd) len
         | exception Wire.Closed ->
           (* clean exit or kill -9: either way the socket EOF is the
              immediate reap signal *)
           continue := false
         | exception Wire.Timed_out ->
           (* a frame begun and never finished within idle_timeout *)
           continue := false)
       | Shm.Idle ->
         if Shm.peer_closed ring || Unix.gettimeofday () > !idle_deadline then
           continue := false
       | exception Unix.Unix_error _ -> continue := false
     done
   with
  | Shm.Dead _ | Shm.Timeout -> ()
  | Wire.Truncated _ | Wire.Too_large _ | Unix.Unix_error _ | Sys_error _ ->
    bump t.c.c_connection_crashes);
  bump t.c.c_shm_reaped;
  Shm.close ring;
  Shm.remove ring

let serve_conn t w gen conn =
  let state =
    {
      session = Structure.Engine.new_session ();
      handles = Hashtbl.create 4;
      next_handle = 1;
      inbuf = ref (Bytes.create 4096);
      outbuf = ref (Bytes.create 4096);
      w_scratch = [||];
      h_scratch = [||];
      ring = None;
    }
  in
  (try
     let continue = ref true in
     while !continue && Atomic.get gen.g_alive do
       let idle_deadline = Unix.gettimeofday () +. t.config.idle_timeout in
       match
         Wire.recv_frame t.transport ~deadline:idle_deadline
           ~max_bytes:Wire.max_frame_default ~buf:state.inbuf conn.fd
       with
       | exception Wire.Closed -> continue := false
       | exception Wire.Timed_out ->
         (* idle or dribbling a frame for idle_timeout: drop it *)
         continue := false
       | len -> (
         match handle_request t w gen conn state ~via:(Via_sock conn.fd) ~len with
         | () -> (
           match state.ring with
           | Some ring ->
             (* the hello was accepted: the rest of this connection is
                served off the ring, then the session dies with it *)
             serve_ring t w gen conn state ring;
             continue := false
           | None -> ())
         | exception Worker_killed ->
           (* this handler observed the injected worker crash (and has
              already answered its request Err_worker_lost): initiate
              the supervised restart and put this connection down *)
           crash t w gen;
           continue := false)
     done
   with
  | Wire.Truncated _ | Wire.Too_large _ | Unix.Unix_error _ | Sys_error _ ->
    (* torn frame, abusive length or transport failure: this
       connection is done, the daemon is not *)
    bump t.c.c_connection_crashes
  | _ ->
    (* anything else (engine invariant, decode bug): same isolation *)
    bump t.c.c_connection_crashes);
  (match state.ring with
  | Some ring ->
    Shm.close ring;
    Shm.remove ring
  | None -> ());
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  unregister t w conn

(* The worker domain: pick accepted connections off this slot's queue
   and serve each on its own (domain-local) thread.  On the way out —
   crash, breaker, or daemon stop — join every handler thread spawned
   in this generation so the domain never exits under live threads. *)
let worker_main t w gen =
  let finished = ref [] in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while
      Queue.is_empty w.q
      && Atomic.get gen.g_alive
      && not (Atomic.get t.stopping)
    do
      Condition.wait t.cond t.mutex
    done;
    if (not (Atomic.get gen.g_alive)) || Atomic.get t.stopping then begin
      running := false;
      Mutex.unlock t.mutex
    end
    else begin
      let fd = Queue.pop w.q in
      let conn = { conn_id = Atomic.fetch_and_add t.next_conn_id 1; fd } in
      Hashtbl.replace w.conns conn.conn_id conn;
      let th = Thread.create (fun () -> serve_conn t w gen conn) () in
      Hashtbl.replace w.threads conn.conn_id th;
      (* sweep handler threads whose connection is gone, so the table
         stays bounded by live connections on a long-lived worker *)
      Hashtbl.iter
        (fun id th -> if not (Hashtbl.mem w.conns id) then finished := (id, th) :: !finished)
        w.threads;
      List.iter (fun (id, _) -> Hashtbl.remove w.threads id) !finished;
      Mutex.unlock t.mutex;
      List.iter (fun (_, th) -> Thread.join th) !finished;
      finished := []
    end
  done;
  Mutex.lock t.mutex;
  let remaining = Hashtbl.fold (fun _ th acc -> th :: acc) w.threads [] in
  Hashtbl.reset w.threads;
  Mutex.unlock t.mutex;
  List.iter Thread.join remaining

(* ---- spawn / respawn / supervision ------------------------------ *)

(* Under [t.mutex]. *)
let spawn_locked t w =
  t.total_spawns <- t.total_spawns + 1;
  let gen = { g_epoch = t.total_spawns; g_alive = Atomic.make true } in
  w.gen <- gen;
  w.state <- Wire.W_up;
  w.domain <- Some (Domain.spawn (fun () -> worker_main t w gen))

(* Respawn a crashed slot: hard-sever whatever connections its dead
   generation still holds (a handler stuck in a blocking send must not
   stall the restart), join the old domain outside the lock, then
   spawn the replacement. *)
let respawn t w =
  Mutex.lock t.mutex;
  Hashtbl.iter (fun _ c -> shutdown_fd c.fd) w.conns;
  Condition.broadcast t.cond;
  let old = w.domain in
  w.domain <- None;
  Mutex.unlock t.mutex;
  (match old with Some d -> Domain.join d | None -> ());
  Mutex.lock t.mutex;
  if (not (Atomic.get t.stopping)) && w.state = Wire.W_restarting then begin
    w.restarts <- w.restarts + 1;
    bump t.c.c_worker_restarts;
    spawn_locked t w
  end;
  Mutex.unlock t.mutex

(* Connections stranded on a queue no live worker will drain: try to
   re-dispatch to an up worker with queue space, else shed with the
   typed loss so the client's retry reconnects. *)
let rescue_queued t w =
  let orphans = ref [] in
  Mutex.lock t.mutex;
  while not (Queue.is_empty w.q) do
    orphans := Queue.pop w.q :: !orphans
  done;
  let orphans = List.rev !orphans in
  let requeued =
    List.filter
      (fun fd ->
        let target =
          Array.fold_left
            (fun best cand ->
              if cand.state = Wire.W_up && Queue.length cand.q < queue_capacity
              then
                match best with
                | Some b when Queue.length b.q <= Queue.length cand.q -> best
                | _ -> Some cand
              else best)
            None t.workers
        in
        match target with
        | Some cand ->
          Queue.push fd cand.q;
          false
        | None -> true)
      orphans
  in
  if orphans <> [] then Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter
    (fun fd ->
      bump t.c.c_shed_connections;
      farewell t fd Wire.Err_worker_lost "no worker available (restarting)")
    requeued

let supervision_loop t =
  while not (Atomic.get t.stopping) do
    let now = Unix.gettimeofday () in
    let due = ref [] in
    Mutex.lock t.mutex;
    Array.iter
      (fun w ->
        match w.state with
        | Wire.W_restarting ->
          if t.breaker && w.slot > 0 then w.state <- Wire.W_disabled
          else if now >= w.restart_at then due := w :: !due
        | Wire.W_up | Wire.W_disabled -> ())
      t.workers;
    Mutex.unlock t.mutex;
    List.iter
      (fun w ->
        rescue_queued t w;
        respawn t w)
      !due;
    Array.iter
      (fun w -> if w.state <> Wire.W_up then rescue_queued t w)
      t.workers;
    (* the store's staleness stats run here, off the request path *)
    Store.refresh t.the_store;
    Thread.delay 0.002
  done

(* ---- dispatch ---------------------------------------------------- *)

(* Route an accepted connection to the least-loaded (queue + live
   connections) up worker with queue space, round-robin on ties.
   [None] once it is queued; otherwise the refusal to shed it with
   (every up queue full, or no worker up), and the caller still owns
   the fd. *)
let dispatch t fd =
  Mutex.lock t.mutex;
  let n = Array.length t.workers in
  let best = ref None in
  let any_up = ref false in
  for i = 0 to n - 1 do
    let w = t.workers.((t.rr + i) mod n) in
    if w.state = Wire.W_up then begin
      any_up := true;
      if Queue.length w.q < queue_capacity then begin
        let load = Queue.length w.q + Hashtbl.length w.conns in
        match !best with
        | Some (_, l) when l <= load -> ()
        | _ -> best := Some (w, load)
      end
    end
  done;
  t.rr <- (t.rr + 1) mod n;
  let refusal =
    match !best with
    | Some (w, _) ->
      Queue.push fd w.q;
      bump t.c.c_dispatched;
      Condition.broadcast t.cond;
      None
    | None when !any_up -> Some (Wire.Err_overloaded, "every worker queue is full")
    | None -> Some (Wire.Err_worker_lost, "no worker available (restarting)")
  in
  Mutex.unlock t.mutex;
  refusal

(* Connections queued or live across all workers. *)
let conn_count t =
  Mutex.lock t.mutex;
  let n =
    Array.fold_left
      (fun acc w -> acc + Queue.length w.q + Hashtbl.length w.conns)
      0 t.workers
  in
  Mutex.unlock t.mutex;
  n

(* ---- bind and create ---------------------------------------------- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

(* A restarting daemon racing its predecessor's TIME_WAIT (or its own
   not-yet-unlinked socket) must not die on the bind: retry EADDRINUSE
   briefly — SO_REUSEADDR covers the common case, this covers the race. *)
let bind_retrying fd sockaddr =
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec go () =
    match Unix.bind fd sockaddr with
    | () -> ()
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _)
      when Unix.gettimeofday () < deadline ->
      Thread.delay 0.02;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Bind and listen on [addr]; returns the listener and the address
   actually bound (the resolved port for [Tcp (_, 0)]). *)
let listen config addr =
  let bind_fresh domain sockaddr ~setup =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    (try
       setup fd;
       bind_retrying fd sockaddr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  in
  let fd, addr =
    match addr with
    | Unix_path path ->
      (* a stale socket file from a previous run would make bind fail *)
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      (bind_fresh Unix.PF_UNIX (Unix.ADDR_UNIX path) ~setup:ignore, addr)
    | Tcp (host, port) ->
      let fd =
        bind_fresh Unix.PF_INET
          (Unix.ADDR_INET (resolve_host host, port))
          ~setup:(fun fd -> Unix.setsockopt fd Unix.SO_REUSEADDR true)
      in
      let port =
        match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
      in
      (fd, Tcp (host, port))
  in
  Unix.listen fd (max 64 config.max_connections);
  (* Non-blocking listener: a connection that vanishes between select
     and accept must not block the whole accept loop. *)
  Unix.set_nonblock fd;
  (fd, addr)

(* The session directory: daemon-owned, created on demand, swept of
   ring files a previous daemon life left behind (their sessions
   cannot be live — the negotiating sockets died with the daemon).
   Any failure here degrades to shm-disabled, never a dead daemon. *)
let prepare_shm_dir store =
  let dir = Filename.concat (Store.dir store) ".shm" in
  match
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ring" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)
  with
  | () -> Some dir
  | exception (Unix.Unix_error _ | Sys_error _) -> None

let new_counters () =
  {
    c_accepted = Atomic.make 0;
    c_shed_connections = Atomic.make 0;
    c_requests_served = Atomic.make 0;
    c_queries_served = Atomic.make 0;
    c_degraded_served = Atomic.make 0;
    c_timeouts = Atomic.make 0;
    c_overloaded = Atomic.make 0;
    c_bad_requests = Atomic.make 0;
    c_store_errors = Atomic.make 0;
    c_connection_crashes = Atomic.make 0;
    c_accept_failures = Atomic.make 0;
    c_dispatched = Atomic.make 0;
    c_worker_crashes = Atomic.make 0;
    c_worker_restarts = Atomic.make 0;
    c_worker_lost_replies = Atomic.make 0;
    c_breaker_trips = Atomic.make 0;
    c_shm_sessions = Atomic.make 0;
    c_shm_served = Atomic.make 0;
    c_shm_reaped = Atomic.make 0;
    c_shm_doorbells = Atomic.make 0;
  }

let create ?(config = default_config) ?transport:(tr = Transport.default) ?fault
    ?(shm_hooks = Shm.no_hooks) ~store addr =
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  (* A peer that vanishes mid-reply must surface as EPIPE on the
     write, never kill the process — the daemon cannot operate under
     the default SIGPIPE disposition, so creating one claims it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, addr = listen config addr in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (* a full pipe already wakes the loop; [wake] must never block *)
  Unix.set_nonblock wake_w;
  let t =
    {
      config;
      transport = tr;
      the_store = store;
      listen_fd;
      addr;
      stopping = Atomic.make false;
      aborted = Atomic.make false;
      wake_r;
      wake_w;
      fault;
      mutex = Mutex.create ();
      cond = Condition.create ();
      workers =
        Array.init config.workers (fun slot ->
            {
              slot;
              q = Queue.create ();
              gen = { g_epoch = 0; g_alive = Atomic.make false };
              state = Wire.W_restarting;
              restarts = 0;
              restart_at = 0.0;
              domain = None;
              conns = Hashtbl.create 8;
              threads = Hashtbl.create 8;
            });
      rr = 0;
      breaker = false;
      total_spawns = 0;
      crash_log = Queue.create ();
      next_conn_id = Atomic.make 1;
      inflight = Atomic.make 0;
      c = new_counters ();
      shm_dir = prepare_shm_dir store;
      shm_hooks;
      sup_thread = None;
    }
  in
  Mutex.lock t.mutex;
  Array.iter (fun w -> spawn_locked t w) t.workers;
  Mutex.unlock t.mutex;
  t.sup_thread <- Some (Thread.create supervision_loop t);
  t

(* ---- stop, drain, shutdown ---------------------------------------- *)

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1) with Unix.Unix_error _ -> ()

(* Lock-free (a flag and a pipe write), so it is safe in a signal
   handler that may interrupt a thread holding [t.mutex]; [run] wakes
   the workers once its accept loop has seen the flag. *)
let stop t = if not (Atomic.exchange t.stopping true) then wake t

let install_sigterm t =
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

(* Shut every live connection down ([how]) and wake every worker so
   it observes [stopping]. *)
let sever t ~how =
  Mutex.lock t.mutex;
  Array.iter
    (fun w -> Hashtbl.iter (fun _ c -> shutdown_fd ~how c.fd) w.conns)
    t.workers;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let abort t =
  Atomic.set t.aborted true;
  Atomic.set t.stopping true;
  (* Hard-sever every connection from here; the handler threads wake
     with EOF/EPIPE and close their own fds. *)
  sever t ~how:Unix.SHUTDOWN_ALL;
  wake t

(* Farewell queued-but-unserved connections and sever the receive side
   of live ones: in-flight requests finish, nothing new starts. *)
let begin_drain t =
  let queued = ref [] in
  Mutex.lock t.mutex;
  Array.iter
    (fun w ->
      while not (Queue.is_empty w.q) do
        queued := Queue.pop w.q :: !queued
      done)
    t.workers;
  Mutex.unlock t.mutex;
  List.iter
    (fun fd ->
      bump t.c.c_shed_connections;
      farewell t fd Wire.Err_shutting_down "daemon is draining")
    !queued;
  sever t ~how:Unix.SHUTDOWN_RECEIVE

(* Final teardown once [stopping] is set and the drain budget is spent:
   close still-queued sockets, join the supervision thread and every
   worker domain. *)
let join t =
  Mutex.lock t.mutex;
  Array.iter
    (fun w ->
      while not (Queue.is_empty w.q) do
        let fd = Queue.pop w.q in
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
    t.workers;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  Option.iter Thread.join t.sup_thread;
  Array.iter
    (fun w ->
      Option.iter Domain.join w.domain;
      w.domain <- None)
    t.workers

(* ---- accept loop -------------------------------------------------- *)

let do_accept t =
  match t.transport.Transport.accept t.listen_fd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    () (* the pending connection vanished between select and accept *)
  | exception Unix.Unix_error _ ->
    (* EMFILE, injected fault, ...: count, back off, keep accepting *)
    bump t.c.c_accept_failures;
    Thread.delay t.config.accept_retry_delay
  | fd, _ -> (
    bump t.c.c_accepted;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let refusal =
      if Atomic.get t.stopping then Some (Wire.Err_shutting_down, "daemon is draining")
      else if conn_count t >= t.config.max_connections then
        Some
          ( Wire.Err_overloaded,
            Printf.sprintf "connection limit %d reached" t.config.max_connections )
      else dispatch t fd
    in
    match refusal with
    | None -> ()
    | Some (status, msg) ->
      bump t.c.c_shed_connections;
      farewell t fd status msg)

let drain_wake t =
  let scratch = Bytes.create 64 in
  try ignore (Unix.read t.wake_r scratch 0 64) with Unix.Unix_error _ -> ()

let close_listener t =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.addr with
  | Unix_path path -> (
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()

let run t =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* listener closed under us (abort): fall out via the flag *)
      Atomic.set t.stopping true
    | ready, _, _ ->
      if List.mem t.wake_r ready then drain_wake t;
      if List.mem t.listen_fd ready && not (Atomic.get t.stopping) then do_accept t
  done;
  close_listener t;
  if Atomic.get t.aborted then
    (* simulated crash: sever everything, no drain, no farewells *)
    sever t ~how:Unix.SHUTDOWN_ALL
  else begin
    (* graceful drain: no new requests (handlers answer
       Err_shutting_down), in-flight ones finish; connections close as
       their clients see EOF on the receive side *)
    begin_drain t;
    let deadline = Unix.gettimeofday () +. t.config.drain_timeout in
    while conn_count t > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    if conn_count t > 0 then begin
      (* drain deadline blown: force the stragglers *)
      sever t ~how:Unix.SHUTDOWN_ALL;
      let force_deadline = Unix.gettimeofday () +. 1.0 in
      while conn_count t > 0 && Unix.gettimeofday () < force_deadline do
        Thread.delay 0.01
      done
    end
  end;
  join t

let start t = Thread.create run t
