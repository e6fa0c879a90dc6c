open Mps_geometry

type error =
  | Refused of Wire.status * string
  | Timed_out
  | Disconnected of string

let error_to_string = function
  | Refused (status, msg) ->
    Printf.sprintf "server refused: %s (%s)" (Wire.status_to_string status) msg
  | Timed_out -> "client-side deadline expired"
  | Disconnected msg -> Printf.sprintf "disconnected: %s" msg

let retryable = function
  | Timed_out | Disconnected _ -> true
  | Refused
      ( ( Wire.Err_overloaded | Wire.Err_timeout | Wire.Err_shutting_down
        | Wire.Err_worker_lost ),
        _ ) ->
    true
  | Refused _ -> false

type meta = { epoch : int; degraded : bool }

type stats = {
  connects : int;
  retries : int;
  pipelined : int;
  ring_requests : int;
}

(* A parked in-flight request.  The reply pump routes each frame to
   its slot by request id; the slot's continuations write the caller's
   result cell, so replies may arrive in any order. *)
type slot = {
  s_parse : Bytes.t -> len:int -> meta -> unit;  (* may raise Wire.Truncated *)
  s_fail : error -> unit;  (* a refusal, or the connection died *)
}

(* One request as the send driver sees it: how to write its body
   (returns the body length) and how to read its reply.  Both channels
   carry the same reply bytes, so the parser never asks which one the
   request took. *)
type 'a request = {
  build : Bytes.t ref -> int;
  parse : Bytes.t -> len:int -> meta -> 'a;  (* may raise Wire.Truncated *)
}

type t = {
  addr : Server.addr;
  transport : Transport.t;
  mutable fd : Unix.file_descr option;
  mutable next_req_id : int;
  (* circuit name -> (handle, n_blocks); valid for the current
     connection only *)
  handles : (string, int * int) Hashtbl.t;
  inflight : (int, slot) Hashtbl.t;
  inbuf : Bytes.t ref;
  outbuf : Bytes.t ref;
  (* shm fast path: ask for a ring on connect, give up after repeated
     failures *)
  want_shm : bool;
  mutable ring : Shm.t option;
  mutable ring_failed : int;
  (* stats *)
  mutable s_connects : int;
  mutable s_retries : int;
  mutable s_pipelined : int;
  mutable s_ring_requests : int;
  (* whether the most recent frame sent may be blindly re-issued — the
     retry gate *)
  mutable last_idempotent : bool;
}

let connect ?(transport = Transport.default) ?(shm = false) addr =
  (* A daemon that dies mid-request must surface as EPIPE (mapped to
     [Disconnected]), never kill the client process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    addr;
    transport;
    fd = None;
    next_req_id = 1;
    handles = Hashtbl.create 4;
    inflight = Hashtbl.create 8;
    inbuf = ref (Bytes.create 4096);
    outbuf = ref (Bytes.create 4096);
    want_shm = shm;
    ring = None;
    ring_failed = 0;
    s_connects = 0;
    s_retries = 0;
    s_pipelined = 0;
    s_ring_requests = 0;
    last_idempotent = true;
  }

let stats t =
  {
    connects = t.s_connects;
    retries = t.s_retries;
    pipelined = t.s_pipelined;
    ring_requests = t.s_ring_requests;
  }

let ring_active t = t.ring <> None

(* Drop the connection and fail everything still in flight on it with
   [err] — a transport failure or desync taints every outstanding
   reply, not just the one we were pumping for. *)
let poison_with t err =
  (* The ring session dies with the connection: closing the socket is
     the server's immediate reap signal, and the closed flag covers the
     case where it is still polling the ring. *)
  (match t.ring with
  | Some ring ->
    (try Shm.close ring with Shm.Dead _ -> ());
    t.ring <- None
  | None -> ());
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  Hashtbl.reset t.handles;
  let slots = Hashtbl.fold (fun _ s acc -> s :: acc) t.inflight [] in
  Hashtbl.reset t.inflight;
  List.iter (fun s -> s.s_fail err) slots

let close t = poison_with t (Disconnected "closed by caller")

(* The ring itself failed (torn frame, server hung up or closed the
   session, dead mapping): count it against further negotiation
   attempts and poison the whole connection — reconnecting renegotiates
   (or gives up and stays on the socket). *)
let ring_dead t msg =
  t.ring_failed <- t.ring_failed + 1;
  poison_with t (Disconnected ("shm session dead: " ^ msg))

let sockaddr_of = function
  | Server.Unix_path path -> Unix.ADDR_UNIX path
  | Server.Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ ->
          raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
    in
    Unix.ADDR_INET (inet, port)

let prefix = Wire.frame_prefix_bytes
let req_header = Wire.request_header_bytes
let rep_header = Wire.reply_header_bytes

(* Deliver one received reply (already in [t.inbuf], payload at offset
   0 — both the socket and the ring present frames this way) to its
   slot.  Any protocol desync poisons the connection. *)
let deliver t ~len =
  (
    let b = !(t.inbuf) in
    match
      let status_i = Wire.get_u8 b ~len 0 in
      let rep_id = Wire.get_u32 b ~len 1 in
      let epoch = Wire.get_u32 b ~len 5 in
      (Wire.status_of_int status_i, rep_id, epoch)
    with
    | exception Wire.Truncated msg ->
      poison_with t (Disconnected ("short reply header: " ^ msg))
    | None, _, _ -> poison_with t (Disconnected "unknown reply status")
    | Some status, rep_id, epoch -> (
      let error_body () =
        match Wire.get_string16 b ~len rep_header with
        | s, _ -> s
        | exception Wire.Truncated _ -> ""
      in
      if rep_id = 0 then
        (* a shed / shutting-down farewell answers everything we have
           in flight, and the server closes after it *)
        match status with
        | Wire.Ok | Wire.Ok_degraded ->
          poison_with t (Disconnected "success reply with request id 0")
        | err_status ->
          let msg = error_body () in
          let slots = Hashtbl.fold (fun _ s acc -> s :: acc) t.inflight [] in
          Hashtbl.reset t.inflight;
          List.iter (fun s -> s.s_fail (Refused (err_status, msg))) slots;
          poison_with t (Disconnected "server sent a farewell")
      else
        match Hashtbl.find_opt t.inflight rep_id with
        | None ->
          poison_with t
            (Disconnected (Printf.sprintf "reply for unknown request %d" rep_id))
        | Some slot -> (
          Hashtbl.remove t.inflight rep_id;
          match status with
          | Wire.Ok | Wire.Ok_degraded -> (
            let meta = { epoch; degraded = status = Wire.Ok_degraded } in
            match slot.s_parse b ~len meta with
            | () -> ()
            | exception Wire.Truncated msg ->
              let e = Disconnected ("malformed reply body: " ^ msg) in
              slot.s_fail e;
              poison_with t e)
          | err_status ->
            slot.s_fail (Refused (err_status, error_body ()));
            (* the worker serving this connection is gone; the server
               severs it next, so start the next call fresh *)
            if err_status = Wire.Err_worker_lost then
              poison_with t (Disconnected "worker lost"))))

(* Receive one frame from the socket and deliver it.  A zero-length
   frame is the server's doorbell (its reply is on the ring) and is
   dropped.  Any transport failure poisons the connection (failing
   every in-flight slot), so a caller looping on an unresolved cell
   always makes progress. *)
let pump_one t fd ~deadline =
  match
    Wire.recv_frame t.transport ?deadline ~max_bytes:Wire.max_frame_default ~buf:t.inbuf fd
  with
  | exception Wire.Timed_out -> poison_with t Timed_out
  | exception Wire.Closed -> poison_with t (Disconnected "connection closed by server")
  | exception Wire.Truncated msg -> poison_with t (Disconnected msg)
  | exception Wire.Too_large n ->
    poison_with t (Disconnected (Printf.sprintf "oversized reply frame (%d bytes)" n))
  | exception Unix.Unix_error (err, fn, _) ->
    poison_with t (Disconnected (Printf.sprintf "%s: %s" fn (Unix.error_message err)))
  | 0 -> ()
  | len -> deliver t ~len

(* Ring-aware pump: wait on the reply ring in {!Shm.await} (after a
   ring request, poll up to 200 us for its reply; otherwise spin,
   yield, then park in a 200 us select on the socket).  The hot path is
   syscall-free; a server that publishes to a parked client rings the
   doorbell, the woken await takes the reply off the ring, and a later
   [pump_one] reads and drops the doorbell.  The socket still carries
   control replies, oversized replies and farewells, and its EOF is how
   a dead server is noticed. *)
let pump_ring t ring fd ~deadline =
  let rec go () =
    match Shm.await ring fd ~buf:t.inbuf with
    | exception Shm.Dead msg -> ring_dead t msg
    | Shm.Frame len -> deliver t ~len
    | Shm.Socket -> pump_one t fd ~deadline
    | Shm.Idle -> (
      if Shm.peer_closed ring then ring_dead t "server closed the session"
      else
        match deadline with
        | Some d when Unix.gettimeofday () > d -> poison_with t Timed_out
        | _ -> go ())
  in
  go ()

let pump t fd ~deadline =
  match t.ring with
  | Some ring -> pump_ring t ring fd ~deadline
  | None -> pump_one t fd ~deadline

(* Register [slot] and send one request frame: a batch whose frame fits
   the ring rides it, and its reply is polled for ({!Shm.expect_reply});
   everything else takes the socket.  On a send failure
   the connection is poisoned — but a daemon that died mid-send may
   have left a farewell in the socket buffer, so salvage it first: a
   typed refusal is a better answer than "broken pipe". *)
let issue t fd ~opcode ~deadline ~build slot =
  t.last_idempotent <- Wire.idempotent opcode;
  let req_id = t.next_req_id in
  t.next_req_id <- (if req_id >= 0xffffffff then 1 else req_id + 1);
  if Hashtbl.length t.inflight > 0 then t.s_pipelined <- t.s_pipelined + 1;
  Hashtbl.replace t.inflight req_id slot;
  (* The wire budget is a u32 of microseconds (0 = none): a budget
     beyond ~71.6 min saturates rather than wrapping to a tiny one. *)
  let deadline_us =
    match deadline with
    | None -> 0
    | Some d ->
      let remaining_us = (d -. Unix.gettimeofday ()) *. 1e6 in
      max 1 (int_of_float (Float.min remaining_us 4294967295.0))
  in
  match
    let payload_len = req_header + build t.outbuf in
    let b = !(t.outbuf) in
    Wire.set_u8 b prefix (Wire.opcode_to_int opcode);
    Wire.set_u32 b (prefix + 1) req_id;
    Wire.set_u32 b (prefix + 5) deadline_us;
    match (opcode, t.ring) with
    | (Wire.Query_batch | Wire.Instantiate_batch), Some ring
      when Shm.tx_fits ring ~len:payload_len ->
      t.s_ring_requests <- t.s_ring_requests + 1;
      Shm.send ?deadline ~control:fd ring b ~off:prefix ~len:payload_len;
      Shm.expect_reply ring;
      ignore (Shm.ring_doorbell ring t.transport fd : bool)
    | _ -> Wire.send_frame t.transport fd b ~payload_len
  with
  | () -> ()
  | exception Shm.Timeout -> poison_with t Timed_out
  | exception Shm.Dead msg -> ring_dead t msg
  | exception Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as err), fn, _) ->
    let salvage = Unix.gettimeofday () +. 0.2 in
    let salvage = match deadline with Some d -> Float.min d salvage | None -> salvage in
    (* drain, not peek: data replies may sit ahead of the farewell, and
       every one of them resolves an in-flight request typed.  Each
       pump either resolves a slot, delivers the farewell (which
       poisons), or hits EOF (which poisons) — so this terminates. *)
    while t.fd <> None && Hashtbl.length t.inflight > 0 && Unix.gettimeofday () < salvage
    do
      pump_one t fd ~deadline:(Some salvage)
    done;
    poison_with t (Disconnected (Printf.sprintf "%s: %s" fn (Unix.error_message err)))
  | exception Unix.Unix_error (err, fn, _) ->
    poison_with t (Disconnected (Printf.sprintf "%s: %s" fn (Unix.error_message err)))

(* The one send path.  [request i] describes request [i] of [n]; up
   to [depth] frames are on the wire at once, and the pump routes each
   reply, in whatever order it comes, to its request's cell until every
   cell resolves.  A dead connection fails the in-flight requests (the
   poison) and the unsent tail; cells already resolved are kept. *)
let drive ?(depth = 1) t ~opcode ~deadline n request =
  let cells = Array.make n None in
  let resolved = ref 0 in
  let set i r =
    if cells.(i) = None then begin
      cells.(i) <- Some r;
      incr resolved
    end
  in
  let next = ref 0 in
  while !resolved < n do
    match t.fd with
    | None ->
      for i = 0 to n - 1 do
        set i (Error (Disconnected "connection poisoned"))
      done
    | Some fd ->
      if !next < n && Hashtbl.length t.inflight < depth then begin
        let i = !next in
        incr next;
        let req = request i in
        issue t fd ~opcode ~deadline ~build:req.build
          {
            s_parse = (fun b ~len meta -> set i (Ok (req.parse b ~len meta)));
            s_fail = (fun e -> set i (Error e));
          }
      end
      else pump t fd ~deadline
  done;
  Array.map Option.get cells

let no_body _ = 0

(* Negotiate the shm fast path on a fresh connection: one Shm_hello
   roundtrip on the socket, carrying this build's ring version; on
   acceptance, attach the ring file the server created for this
   session.  A decline or a failed attach counts against [ring_failed]
   — after 3 strikes the client stops asking and stays on the socket
   for good. *)
let negotiate_ring t =
  let deadline = Some (Unix.gettimeofday () +. 5.0) in
  let put_version outbuf =
    Wire.ensure outbuf (prefix + req_header + 4);
    Wire.set_u32 !outbuf (prefix + req_header) Shm.version;
    4
  in
  let hello =
    {
      build = put_version;
      parse =
        (fun b ~len _meta ->
          if Wire.get_u8 b ~len rep_header = 1 then
            Some (fst (Wire.get_string16 b ~len (rep_header + 5)))
          else None);
    }
  in
  match drive t ~opcode:Wire.Shm_hello ~deadline 1 (fun _ -> hello) with
  | [| Ok (Some path) |] -> (
    match Shm.attach ~path () with
    | ring -> t.ring <- Some ring
    | exception Shm.Dead _ -> t.ring_failed <- t.ring_failed + 1)
  | _ -> t.ring_failed <- t.ring_failed + 1

let ensure_connected t =
  match t.fd with
  | Some fd -> Ok fd
  | None -> (
    match
      let fd =
        Unix.socket ~cloexec:true
          (match t.addr with Server.Unix_path _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
          Unix.SOCK_STREAM 0
      in
      (try
         Unix.connect fd (sockaddr_of t.addr);
         try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    with
    | fd -> (
      t.fd <- Some fd;
      t.s_connects <- t.s_connects + 1;
      if t.want_shm && t.ring_failed < 3 then negotiate_ring t;
      (* negotiation may have poisoned the connection under us *)
      match t.fd with
      | Some fd -> Ok fd
      | None -> Error (Disconnected "connection lost during shm negotiation"))
    | exception Unix.Unix_error (err, fn, _) ->
      Error (Disconnected (Printf.sprintf "connect: %s: %s" fn (Unix.error_message err)))
    )

(* One request through the driver, connecting first if needed. *)
let roundtrip ?budget t ~opcode req =
  match ensure_connected t with
  | Error e ->
    t.last_idempotent <- Wire.idempotent opcode;
    Error e
  | Ok _ ->
    let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) budget in
    (drive t ~opcode ~deadline 1 (fun _ -> req)).(0)

let ping ?budget t =
  roundtrip ?budget t ~opcode:Wire.Ping
    { build = no_body; parse = (fun _ ~len:_ meta -> meta) }

let health ?budget t =
  roundtrip ?budget t ~opcode:Wire.Health
    { build = no_body; parse = (fun b ~len _meta -> Wire.get_health b ~len rep_header) }

let put_name circuit outbuf =
  Wire.put_string16 outbuf (prefix + req_header) circuit - (prefix + req_header)

(* Open (or look up) this connection's handle for a circuit. *)
let handle_for ?budget t circuit =
  match Hashtbl.find_opt t.handles circuit with
  | Some hb -> Ok hb
  | None -> (
    match
      roundtrip ?budget t ~opcode:Wire.Open_circuit
        {
          build = put_name circuit;
          parse =
            (fun b ~len _meta ->
              (Wire.get_u16 b ~len rep_header, Wire.get_u16 b ~len (rep_header + 3)));
        }
    with
    | Ok hb ->
      Hashtbl.replace t.handles circuit hb;
      Ok hb
    | Error _ as e -> e)

(* Dims are u16 on the wire; anything outside that range cannot be a
   designer dimension and is the caller's bug, not a transport
   problem. *)
let put_dim b off v =
  if v < 1 || v > 0xffff then
    invalid_arg (Printf.sprintf "Client: dimension %d outside the u16 wire range" v);
  Bytes.set_uint16_le b off v

let put_batch_request outbuf ~handle ~n dims =
  let count = Array.length dims in
  let body = 6 + (count * 4 * n) in
  Wire.ensure outbuf (prefix + req_header + body);
  let b = !outbuf in
  let base = prefix + req_header in
  Wire.set_u16 b base handle;
  Wire.set_u32 b (base + 2) count;
  Array.iteri
    (fun i d ->
      let off = base + 6 + (i * 4 * n) in
      for j = 0 to n - 1 do
        put_dim b (off + (j * 4)) (Dims.width d j);
        put_dim b (off + (j * 4) + 2) (Dims.height d j)
      done)
    dims;
  body

(* A batch reply: the result count, then one item per query. *)
let check_count b ~len expected =
  let count = Wire.get_u32 b ~len rep_header in
  if count <> expected then
    raise
      (Wire.Truncated (Printf.sprintf "%d results for %d queries" count expected))

let parse_ids b ~len count =
  check_count b ~len count;
  let base = rep_header + 4 in
  Array.init count (fun i -> Wire.get_i32 b ~len (base + (i * 4)))

let query_request ~handle ~n dims =
  let count = Array.length dims in
  {
    build = (fun outbuf -> put_batch_request outbuf ~handle ~n dims);
    parse = (fun b ~len meta -> (parse_ids b ~len count, meta));
  }

let query_ids ?budget t ~circuit dims =
  match handle_for ?budget t circuit with
  | Error _ as e -> e
  | Ok (handle, n) ->
    roundtrip ?budget t ~opcode:Wire.Query_batch (query_request ~handle ~n dims)

let query_ids_pipelined ?budget ?(depth = 8) t ~circuit batches =
  let nb = Array.length batches in
  if depth < 1 then invalid_arg "Client.query_ids_pipelined: depth < 1";
  match handle_for ?budget t circuit with
  | Error e -> Array.make nb (Error e)
  | Ok (handle, n) ->
    let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) budget in
    drive ~depth t ~opcode:Wire.Query_batch ~deadline nb (fun i ->
        query_request ~handle ~n batches.(i))

let parse_rects ~count ~n b ~len =
  check_count b ~len count;
  let base = rep_header + 4 in
  let item = 16 * n in
  Array.init count (fun i ->
      Array.init n (fun j ->
          let off = base + (i * item) + (j * 16) in
          Rect.make
            ~x:(Wire.get_i32 b ~len off)
            ~y:(Wire.get_i32 b ~len (off + 4))
            ~w:(Wire.get_i32 b ~len (off + 8))
            ~h:(Wire.get_i32 b ~len (off + 12))))

let instantiate ?budget t ~circuit dims =
  match handle_for ?budget t circuit with
  | Error _ as e -> e
  | Ok (handle, n) ->
    let count = Array.length dims in
    roundtrip ?budget t ~opcode:Wire.Instantiate_batch
      {
        build = (fun outbuf -> put_batch_request outbuf ~handle ~n dims);
        parse = (fun b ~len meta -> (parse_rects ~count ~n b ~len, meta));
      }

let reload ?budget t ~circuit =
  roundtrip ?budget t ~opcode:Wire.Reload
    { build = put_name circuit; parse = (fun _ ~len:_ meta -> meta) }

let server_stats ?budget t =
  roundtrip ?budget t ~opcode:Wire.Stats
    {
      build = no_body;
      parse = (fun b ~len meta -> (fst (Wire.get_string16 b ~len rep_header), meta));
    }

(* ---- retry ------------------------------------------------------- *)

let with_retry ?(attempts = 6) ?(base_delay = 0.01) ?(max_delay = 1.0) ~rng t f =
  let rec go attempt =
    match f () with
    | Ok _ as ok ->
      (* a degraded answer is still an answer — never re-issued *)
      ok
    | Error e when attempt + 1 < attempts && retryable e && t.last_idempotent ->
      t.s_retries <- t.s_retries + 1;
      let cap = min max_delay (base_delay *. (2.0 ** float_of_int attempt)) in
      (* jitter into [cap/2, cap): synchronized clients desynchronize *)
      Thread.delay (cap *. Mps_rng.Rng.float_in rng 0.5 1.0);
      go (attempt + 1)
    | Error _ as e -> e
  in
  go 0
