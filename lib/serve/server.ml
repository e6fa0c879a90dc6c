type addr =
  | Unix_path of string
  | Tcp of string * int

(* The knobs and counters live with the supervisor (which owns the
   workers and the request path); re-exporting the records here keeps
   [Server.default_config] / field access working for callers. *)
type config = Supervisor.config = {
  workers : int;
  queue_capacity : int;
  max_connections : int;
  max_inflight : int;
  max_batch : int;
  max_frame_bytes : int;
  idle_timeout : float;
  drain_timeout : float;
  accept_retry_delay : float;
  restart_base_delay : float;
  restart_max_delay : float;
  breaker_window : float;
  breaker_max_restarts : int;
  shm : bool;
  shm_dir : string option;
  shm_ring_words : int;
  shm_heartbeat_timeout : float;
}

let default_config = Supervisor.default_config

type stats = Supervisor.stats = {
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
}

type t = {
  config : config;
  transport : Transport.t;
  the_store : Store.t;
  listen_fd : Unix.file_descr;
  addr : addr;
  stopping : bool Atomic.t;
  aborted : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  sup : Supervisor.t;
}

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

let create ?(config = default_config) ?transport:(tr = Transport.default) ?fault
    ?shm_hooks ~store addr =
  (* A peer that vanishes mid-reply must surface as EPIPE on the
     write, never kill the process — the daemon cannot operate under
     the default SIGPIPE disposition, so creating one claims it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, addr =
    match addr with
    | Unix_path path ->
      (* a stale socket file from a previous run would make bind fail *)
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try bind_retrying fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      (fd, Unix_path path)
    | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         bind_retrying fd (Unix.ADDR_INET (resolve_host host, port))
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, port))
  in
  Unix.listen listen_fd (max 64 config.max_connections);
  (* Non-blocking listener: a connection that vanishes between select
     and accept must not block the whole accept loop. *)
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (* a full pipe already wakes the loop; [wake] must never block *)
  Unix.set_nonblock wake_w;
  let stopping = Atomic.make false in
  let sup =
    Supervisor.create ?fault ?shm_hooks ~config ~transport:tr ~store ~stopping ()
  in
  {
    config;
    transport = tr;
    the_store = store;
    listen_fd;
    addr;
    stopping;
    aborted = Atomic.make false;
    wake_r;
    wake_w;
    sup;
  }

let bound_addr t = t.addr
let store t = t.the_store
let stats t = Supervisor.stats t.sup
let health t = Supervisor.health t.sup
let kill_worker t slot = Supervisor.kill_worker t.sup slot

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1) with Unix.Unix_error _ -> ()

(* Lock-free (a flag and a pipe write), so it is safe in a signal
   handler that may interrupt a thread holding the supervisor mutex;
   [run] wakes the workers once its accept loop has seen the flag. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then wake t

let abort t =
  Atomic.set t.aborted true;
  Atomic.set t.stopping true;
  (* Hard-sever every connection from here; the handler threads wake
     with EOF/EPIPE and close their own fds. *)
  Supervisor.sever_all t.sup;
  Supervisor.notify_stop t.sup;
  wake t

let install_sigterm t =
  (* [stop] takes no lock: the full drain happens on the accept
     thread, never in signal context. *)
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

let do_accept t =
  let c = Supervisor.counters t.sup in
  match t.transport.Transport.accept t.listen_fd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    () (* the pending connection vanished between select and accept *)
  | exception Unix.Unix_error _ ->
    (* EMFILE, injected fault, ...: count, back off, keep accepting *)
    Atomic.incr c.Supervisor.c_accept_failures;
    Thread.delay t.config.accept_retry_delay
  | fd, _ ->
    Atomic.incr c.Supervisor.c_accepted;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let shed status msg =
      Atomic.incr c.Supervisor.c_shed_connections;
      Supervisor.farewell t.sup fd status msg
    in
    if Atomic.get t.stopping then shed Wire.Err_shutting_down "daemon is draining"
    else if Supervisor.conn_count t.sup >= t.config.max_connections then
      shed Wire.Err_overloaded
        (Printf.sprintf "connection limit %d reached" t.config.max_connections)
    else
      match Supervisor.dispatch t.sup fd with
      | Supervisor.Dispatched -> ()
      | Supervisor.Backpressure ->
        shed Wire.Err_overloaded "every worker queue is full"
      | Supervisor.No_worker ->
        shed Wire.Err_worker_lost "no worker available (restarting)"

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
  Supervisor.notify_stop t.sup;
  close_listener t;
  if Atomic.get t.aborted then
    (* simulated crash: sever everything, no drain, no farewells *)
    Supervisor.sever_all t.sup
  else begin
    (* graceful drain: no new requests (handlers answer
       Err_shutting_down), in-flight ones finish; connections close as
       their clients see EOF on the receive side *)
    Supervisor.begin_drain t.sup;
    let deadline = Unix.gettimeofday () +. t.config.drain_timeout in
    while Supervisor.conn_count t.sup > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    if Supervisor.conn_count t.sup > 0 then begin
      (* drain deadline blown: force the stragglers *)
      Supervisor.sever_all t.sup;
      let force_deadline = Unix.gettimeofday () +. 1.0 in
      while Supervisor.conn_count t.sup > 0 && Unix.gettimeofday () < force_deadline do
        Thread.delay 0.01
      done
    end
  end;
  (* join the supervision thread and every worker domain *)
  Supervisor.join t.sup

let start t = Thread.create run t
