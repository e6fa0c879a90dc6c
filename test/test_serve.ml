(* Contract and chaos tests for the mpsd serving stack.

   Every scenario drives the real daemon — accept loop, per-connection
   threads, store, wire protocol — over a Unix socket (one over loopback
   TCP) in a temp directory, with faults injected through the pluggable
   transport.  The invariant mirrors the persistence chaos suite: a
   network fault surfaces as a typed client error or a flagged degraded
   answer, never as a wrong answer or an escaped exception, and a
   client retrying with backoff converges once the fault clears. *)

open Mps_geometry
open Mps_netlist
open Mps_core
open Mps_serve
open Mps_fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let circuit = Benchmarks.circ01
let circuit_name = "circ01"

let structure = Fixtures.circ01_minimal

(* Oracle: the same structure compiled in-process.  The codec
   round-trip is bit-exact, so the daemon (serving from the saved
   file) must agree with it query for query. *)
let oracle = lazy (Structure.Engine.create (Lazy.force structure))

let random_batch ~seed n =
  let rng = Mps_rng.Rng.create ~seed in
  let bounds = Circuit.dim_bounds circuit in
  Array.init n (fun _ -> Dimbox.random_dims rng bounds)

let expected_ids dims =
  let engine = Lazy.force oracle in
  let session = Structure.Engine.new_session () in
  Array.map (Structure.Engine.query_id engine session) dims

let with_tmp_dir f =
  let dir = Filename.temp_file "mps_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  (* shm sessions live in a subdirectory of the store dir, so cleanup
     must recurse *)
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* A daemon over a fresh store in a temp dir, stopped (gracefully) and
   joined on the way out so no test leaks a thread, domain or socket.
   [save] (default) writes the structure's container, so answers are
   served from the mapping and shm replies carry descriptors; [tcp]
   binds loopback TCP on a free port instead of a Unix socket;
   [stat_interval] is the store's (default 0, a stat on every get);
   [prepare] runs on the store directory before the daemon starts. *)
let with_server ?config ?transport ?fault ?shm_hooks ?(save = true) ?(tcp = false)
    ?stat_interval ?(prepare = ignore) f =
  with_tmp_dir (fun dir ->
      let store = Store.create ?stat_interval ~dir () in
      if save then
        Zcodec.save (Lazy.force structure) ~path:(Store.zpath_for store circuit_name);
      prepare dir;
      let server =
        Server.create ?config ?transport ?fault ?shm_hooks ~store
          (if tcp then Server.Tcp ("127.0.0.1", 0)
           else Server.Unix_path (Filename.concat dir "mpsd.sock"))
      in
      let th = Server.start server in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join th)
        (fun () -> f server (Server.bound_addr server)))

let with_client ?transport ?shm addr f =
  let client = Client.connect ?transport ?shm addr in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let ok_or_fail tag = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" tag (Client.error_to_string e)

let wait_until ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let all_up h = Array.for_all (fun w -> w.Wire.w_state = Wire.W_up) h.Wire.workers

(* --- Round trips ----------------------------------------------------- *)

let round_trip () =
  with_server (fun _server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:11 64 in
          let ids, meta =
            ok_or_fail "query" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "not degraded" false meta.Client.degraded;
          check_int "first epoch" 1 meta.Client.epoch;
          let expect = expected_ids dims in
          Array.iteri
            (fun i id -> check_int (Printf.sprintf "query %d id" i) expect.(i) id)
            ids;
          let sub = Array.sub dims 0 8 in
          let plans, _ =
            ok_or_fail "instantiate" (Client.instantiate client ~circuit:circuit_name sub)
          in
          let engine = Lazy.force oracle in
          let session = Structure.Engine.new_session () in
          Array.iteri
            (fun i rects ->
              check_bool
                (Printf.sprintf "floorplan %d overlap-free" i)
                true
                (Rect.any_overlap rects = None);
              check_bool
                (Printf.sprintf "floorplan %d matches the oracle" i)
                true
                (rects = Structure.Engine.instantiate engine session sub.(i)))
            plans))

let unknown_and_missing () =
  with_server (fun _server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:3 2 in
          (match Client.query_ids client ~circuit:"not a circuit" dims with
          | Error (Client.Refused (Wire.Err_unknown_circuit, _)) -> ()
          | Error e ->
            Alcotest.failf "unknown circuit: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "unknown circuit was served");
          (* a Table 1 circuit whose file is absent from the store *)
          match Client.query_ids client ~circuit:"circ02" dims with
          | Error (Client.Refused (Wire.Err_store, _)) -> ()
          | Error e -> Alcotest.failf "missing file: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "missing file was served"))

(* --- Raw frames: deadlines and malformed requests -------------------- *)

let connect_raw addr =
  match addr with
  | Server.Unix_path path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Server.Tcp _ -> Alcotest.fail "raw tests use unix sockets"

(* One exchange built byte by byte, bypassing the client — how a buggy
   or adversarial peer reaches the daemon.  [build] writes the body at
   the given offset into the buffer ref and returns its length. *)
let raw_roundtrip fd ~opcode ~deadline_us ~build =
  let req_header = Wire.request_header_bytes in
  let prefix = Wire.frame_prefix_bytes in
  let outbuf = ref (Bytes.create 1024) in
  let body_len = build outbuf (prefix + req_header) in
  let b = !outbuf in
  Wire.set_u8 b prefix opcode;
  Wire.set_u32 b (prefix + 1) 7;
  Wire.set_u32 b (prefix + 5) deadline_us;
  Wire.send_frame Transport.default fd b ~payload_len:(req_header + body_len);
  let inbuf = ref (Bytes.create 1024) in
  let len =
    Wire.recv_frame Transport.default ~max_bytes:Wire.max_frame_default ~buf:inbuf fd
  in
  match Wire.status_of_int (Wire.get_u8 !inbuf ~len 0) with
  | Some status -> (status, !inbuf, len)
  | None -> Alcotest.fail "daemon replied with an unknown status byte"

let raw_open_circuit fd =
  let status, b, len =
    raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Open_circuit) ~deadline_us:0
      ~build:(fun buf off -> Wire.put_string16 buf off circuit_name - off)
  in
  check_bool "open circuit ok" true (status = Wire.Ok);
  let handle = Wire.get_u16 b ~len Wire.reply_header_bytes in
  let n = Wire.get_u16 b ~len (Wire.reply_header_bytes + 3) in
  (handle, n)

(* A batch body for the given dims, for a raw request. *)
let build_dims ~handle ~n dims buf off =
  let count = Array.length dims in
  let body = 6 + (count * 4 * n) in
  Wire.ensure buf (off + body);
  let b = !buf in
  Wire.set_u16 b off handle;
  Wire.set_u32 b (off + 2) count;
  Array.iteri
    (fun i d ->
      let base = off + 6 + (i * 4 * n) in
      for j = 0 to n - 1 do
        Bytes.set_uint16_le b (base + (j * 4)) (Dims.width d j);
        Bytes.set_uint16_le b (base + (j * 4) + 2) (Dims.height d j)
      done)
    dims;
  body

(* [count] copies of the circuit's minimum dims. *)
let build_batch ~handle ~n ~count =
  build_dims ~handle ~n (Array.make count (Circuit.min_dims circuit))

(* A hello body: the ring version the client speaks, as a u32. *)
let put_version v buf off =
  Wire.ensure buf (off + 4);
  Wire.set_u32 !buf off v;
  4

(* Negotiate a session by hand (raw socket + attach) so the client half
   can misbehave in ways [Client] never would. *)
let raw_shm_hello fd =
  let status, b, len =
    raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Shm_hello) ~deadline_us:0
      ~build:(put_version Shm.version)
  in
  check_bool "hello ok" true (status = Wire.Ok);
  check_int "hello accepted" 1 (Wire.get_u8 b ~len Wire.reply_header_bytes);
  fst (Wire.get_string16 b ~len (Wire.reply_header_bytes + 5))

(* One exchange on the client half of a hand-negotiated session: the
   request published on the ring, the reply read off it. *)
let raw_ring_roundtrip ring ~opcode ~req_id ~build =
  let req_header = Wire.request_header_bytes in
  let buf = ref (Bytes.create 256) in
  let body = build buf req_header in
  let b = !buf in
  Wire.set_u8 b 0 (Wire.opcode_to_int opcode);
  Wire.set_u32 b 1 req_id;
  Wire.set_u32 b 5 0;
  Shm.send ring b ~off:0 ~len:(req_header + body);
  let rbuf = ref (Bytes.create 256) in
  let len = Shm.recv ~deadline:(Unix.gettimeofday () +. 2.0) ring ~buf:rbuf in
  (!rbuf, len)

(* A ring request in raw bytes: one query for the circuit's minimum
   dims, published on the client half of a hand-negotiated session. *)
let raw_ring_query ring ~handle ~n ~req_id =
  let r, len =
    raw_ring_roundtrip ring ~opcode:Wire.Query_batch ~req_id
      ~build:(build_batch ~handle ~n ~count:1)
  in
  check_bool "ring reply ok" true
    (Wire.status_of_int (Wire.get_u8 r ~len 0) = Some Wire.Ok);
  check_int "ring reply id" req_id (Wire.get_u32 r ~len 1);
  check_int "one result" 1 (Wire.get_u32 r ~len Wire.reply_header_bytes);
  Wire.get_i32 r ~len (Wire.reply_header_bytes + 4)

let server_side_deadline () =
  with_server (fun server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let handle, n = raw_open_circuit fd in
          (* a one-microsecond budget on a 2048-query batch cannot be
             met; the daemon must say so instead of answering late *)
          let status, _, _ =
            raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Query_batch)
              ~deadline_us:1 ~build:(build_batch ~handle ~n ~count:2048)
          in
          check_bool "expired budget is a typed timeout" true
            (status = Wire.Err_timeout);
          check_bool "timeout counted" true ((Server.stats server).timeouts >= 1)))

let malformed_requests () =
  with_server (fun server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let handle, n = raw_open_circuit fd in
          (* unknown opcode *)
          let status, _, _ =
            raw_roundtrip fd ~opcode:99 ~deadline_us:0 ~build:(fun _ _ -> 0)
          in
          check_bool "unknown opcode rejected" true (status = Wire.Err_bad_request);
          (* count does not match the payload size *)
          let status, _, _ =
            raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Query_batch)
              ~deadline_us:0
              ~build:(fun buf off ->
                let body = build_batch ~handle ~n ~count:4 buf off in
                Wire.set_u32 !buf (off + 2) 64;
                body)
          in
          check_bool "mismatched count rejected" true (status = Wire.Err_bad_request);
          (* a handle this connection never opened *)
          let status, _, _ =
            raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Query_batch)
              ~deadline_us:0 ~build:(build_batch ~handle:999 ~n ~count:1)
          in
          check_bool "unknown handle rejected" true (status = Wire.Err_bad_request);
          (* a zero dimension on the wire *)
          let status, _, _ =
            raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Query_batch)
              ~deadline_us:0
              ~build:(fun buf off ->
                let body = build_batch ~handle ~n ~count:1 buf off in
                Bytes.set_uint16_le !buf (off + 6) 0;
                body)
          in
          check_bool "zero dimension rejected" true (status = Wire.Err_bad_request);
          check_bool "bad requests counted" true
            ((Server.stats server).bad_requests >= 4);
          (* the connection survived all of it *)
          let status, _, _ =
            raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Query_batch)
              ~deadline_us:0 ~build:(build_batch ~handle ~n ~count:2)
          in
          check_bool "connection still serves after rejects" true (status = Wire.Ok)))

(* --- Load shedding ---------------------------------------------------- *)

let shed_inflight () =
  let config = { Server.default_config with Server.max_inflight = 0 } in
  with_server ~config (fun server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:5 4 in
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error (Client.Refused (Wire.Err_overloaded, _) as e) ->
            check_bool "overload is retryable" true (Client.retryable e)
          | Error e -> Alcotest.failf "expected overload: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "request served past the admission limit");
          check_bool "shed counted" true ((Server.stats server).overloaded >= 1)))

let shed_connections () =
  let config = { Server.default_config with Server.max_connections = 1 } in
  with_server ~config (fun server addr ->
      with_client addr (fun first ->
          let _ = ok_or_fail "first client ping" (Client.ping first) in
          with_client addr (fun second ->
              (match Client.ping second with
              | Error (Client.Refused (Wire.Err_overloaded, _)) -> ()
              | Error e ->
                Alcotest.failf "expected connection shed: %s"
                  (Client.error_to_string e)
              | Ok _ -> Alcotest.fail "second connection admitted past the limit");
              check_bool "connection shed counted" true
                ((Server.stats server).shed_connections >= 1);
              (* the first connection is unharmed *)
              let dims = random_batch ~seed:6 4 in
              let ids, _ =
                ok_or_fail "first client still served"
                  (Client.query_ids first ~circuit:circuit_name dims)
              in
              check_bool "first client answers correct" true
                (ids = expected_ids dims))))

(* --- Injected transport faults --------------------------------------- *)

let inj op skip action seed = { Fault.op; skip; action; seed }

(* Short reads and writes are healed by the framing layer: the answer
   still arrives and is still right. *)
let short_io_heals () =
  with_server (fun _server addr ->
      let plan =
        [
          inj Fault.Net_send 0 (Fault.Truncate 0.3) 1;
          inj Fault.Net_recv 1 (Fault.Truncate 0.4) 2;
        ]
      in
      let transport, fired = Fault.transport_of_plan plan in
      with_client ~transport addr (fun client ->
          let dims = random_batch ~seed:21 32 in
          let ids, _ =
            ok_or_fail "query through short io"
              (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "short io answers correct" true (ids = expected_ids dims);
          check_int "both injections fired" 2 (fired ())))

(* A stalled peer blows the client deadline: typed [Timed_out], and a
   retry (the stall fires once) converges on the right answer. *)
let stall_past_deadline () =
  with_server (fun _server addr ->
      let dims = random_batch ~seed:22 16 in
      let transport, fired =
        Fault.transport_of_plan [ inj Fault.Net_recv 0 (Fault.Stall 0.3) 1 ]
      in
      with_client ~transport addr (fun client ->
          (match Client.query_ids ~budget:0.05 client ~circuit:circuit_name dims with
          | Error Client.Timed_out -> ()
          | Error e -> Alcotest.failf "expected timeout: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "stalled reply beat a 50 ms deadline");
          check_int "stall fired" 1 (fired ()));
      let transport, _ =
        Fault.transport_of_plan [ inj Fault.Net_recv 0 (Fault.Stall 0.3) 1 ]
      in
      with_client ~transport addr (fun client ->
          let rng = Mps_rng.Rng.create ~seed:1 in
          let ids, _ =
            ok_or_fail "retry after stall"
              (Client.with_retry ~attempts:4 ~base_delay:0.005 ~rng client (fun () ->
                   Client.query_ids ~budget:0.05 client ~circuit:circuit_name dims))
          in
          check_bool "retry converges on the right answer" true
            (ids = expected_ids dims)))

(* The peer vanishes mid-request: typed [Disconnected], and the retry
   reconnects and converges. *)
let disconnect_mid_request () =
  with_server (fun _server addr ->
      let dims = random_batch ~seed:23 16 in
      let transport, fired =
        Fault.transport_of_plan [ inj Fault.Net_recv 0 Fault.Vanish 1 ]
      in
      with_client ~transport addr (fun client ->
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error (Client.Disconnected _ as e) ->
            check_bool "disconnect is retryable" true (Client.retryable e)
          | Error e ->
            Alcotest.failf "expected disconnect: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "vanished peer produced an answer");
          check_int "vanish fired" 1 (fired ());
          (* same client object: retry reconnects through the poisoned fd *)
          let rng = Mps_rng.Rng.create ~seed:2 in
          let ids, _ =
            ok_or_fail "retry after disconnect"
              (Client.with_retry ~attempts:4 ~base_delay:0.005 ~rng client (fun () ->
                   Client.query_ids client ~circuit:circuit_name dims))
          in
          check_bool "reconnect converges on the right answer" true
            (ids = expected_ids dims)))

(* A failed accept is counted and retried; the connection waiting in
   the backlog is served on the next pass. *)
let accept_failure_survived () =
  let config = { Server.default_config with Server.accept_retry_delay = 0.01 } in
  let transport, fired =
    Fault.transport_of_plan [ inj Fault.Net_accept 0 Fault.Fail 1 ]
  in
  with_server ~config ~transport (fun server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:24 8 in
          let ids, _ =
            ok_or_fail "served after accept failure"
              (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "answers correct after accept failure" true
            (ids = expected_ids dims);
          check_int "accept fault fired" 1 (fired ());
          check_bool "accept failure counted" true
            ((Server.stats server).accept_failures >= 1)))

(* --- Crash, restart, converge ---------------------------------------- *)

let crash_restart_converge () =
  with_tmp_dir (fun dir ->
      let store = Store.create ~dir () in
      let path = Store.zpath_for store circuit_name in
      Zcodec.save (Lazy.force structure) ~path;
      let sock = Filename.concat dir "mpsd.sock" in
      let server1 = Server.create ~store (Server.Unix_path sock) in
      let th1 = Server.start server1 in
      let addr = Server.bound_addr server1 in
      with_client addr (fun client ->
          let dims = random_batch ~seed:31 16 in
          let ids, _ =
            ok_or_fail "query before crash"
              (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "pre-crash answers correct" true (ids = expected_ids dims);
          (* the daemon dies hard, mid-conversation *)
          Server.abort server1;
          Thread.join th1;
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error e ->
            check_bool "crash surfaces as a retryable typed error" true
              (Client.retryable e)
          | Ok _ -> Alcotest.fail "query answered by a dead daemon");
          (* the store file survived the crash intact *)
          ignore (Zcodec.load ~circuit path);
          (* a restarted daemon on the same socket; the same client
             object converges through retry with backoff *)
          let server2 = Server.create ~store:(Store.create ~dir ()) (Server.Unix_path sock) in
          let th2 = Server.start server2 in
          Fun.protect
            ~finally:(fun () ->
              Server.stop server2;
              Thread.join th2)
            (fun () ->
              let rng = Mps_rng.Rng.create ~seed:3 in
              let ids, meta =
                ok_or_fail "retry against the restarted daemon"
                  (Client.with_retry ~attempts:6 ~base_delay:0.01 ~rng client (fun () ->
                       Client.query_ids client ~circuit:circuit_name dims))
              in
              check_bool "post-restart answers correct" true (ids = expected_ids dims);
              check_int "fresh process starts the epoch sequence anew" 1
                meta.Client.epoch)))

(* --- Degradation and hot reload --------------------------------------- *)

(* A container whose engine sections are wrecked but whose placement
   records are intact: strict loading refuses it, salvage recovers
   every record. *)
let damage_engine_sections raw =
  let view = Zcodec.of_string ~circuit raw in
  let b = Bytes.of_string raw in
  List.iter
    (fun s ->
      if s.Zcodec.tag <> "POOL" && s.Zcodec.tag <> "PLCT" then
        for wi = s.Zcodec.off_words to s.Zcodec.off_words + s.Zcodec.len_words - 1 do
          Bytes.set_int64_le b (wi * 8) 0x0123_4567_89AB_CDEFL
        done)
    view.Zcodec.sections;
  Bytes.to_string b

(* A damaged container salvages; every reply is flagged degraded and
   the floorplans are still legal — degraded, never silently wrong. *)
let degraded_serving () =
  with_server ~save:false (fun server addr ->
      let store = Server.store server in
      Persist.atomic_write ~path:(Store.zpath_for store circuit_name)
        (damage_engine_sections (Zcodec.to_string (Lazy.force structure)));
      with_client addr (fun client ->
          let dims = random_batch ~seed:41 16 in
          match Client.instantiate client ~circuit:circuit_name dims with
          | Error e -> Alcotest.failf "degraded query: %s" (Client.error_to_string e)
          | Ok (plans, meta) ->
            (match Store.get store circuit_name with
            | Ok entry ->
              check_bool "entry was salvaged, served from the heap" true
                entry.Store.salvaged
            | Error e -> Alcotest.failf "store: %s" (Store.error_to_string e));
            check_bool "salvaged entry is flagged degraded" true meta.Client.degraded;
            check_bool "degraded replies counted" true
              ((Server.stats server).degraded_served >= 1);
            Array.iteri
              (fun i rects ->
                check_bool
                  (Printf.sprintf "degraded floorplan %d overlap-free" i)
                  true
                  (Rect.any_overlap rects = None))
              plans))

let hot_reload_epochs () =
  with_server (fun server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:42 4 in
          let _, meta =
            ok_or_fail "first query" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_int "first epoch" 1 meta.Client.epoch;
          (* a forced reload bumps the epoch with no file change *)
          let meta = ok_or_fail "reload" (Client.reload client ~circuit:circuit_name) in
          check_int "forced reload bumps the epoch" 2 meta.Client.epoch;
          (* rewriting the file (newer mtime) hot-reloads on next use *)
          let path = Store.zpath_for (Server.store server) circuit_name in
          Zcodec.save (Lazy.force structure) ~path;
          let later = Unix.gettimeofday () +. 10.0 in
          Unix.utimes path later later;
          let ids, meta =
            ok_or_fail "query after rewrite"
              (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_int "mtime change hot-reloads" 3 meta.Client.epoch;
          check_bool "reloaded answers correct" true (ids = expected_ids dims)))

let idle_timeout_drops () =
  let config = { Server.default_config with Server.idle_timeout = 0.05 } in
  with_server ~config (fun _server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:43 4 in
          let _ = ok_or_fail "warm-up" (Client.query_ids client ~circuit:circuit_name dims) in
          Thread.delay 0.3;
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error e -> check_bool "idle drop is retryable" true (Client.retryable e)
          | Ok _ ->
            (* a race where the reply beat the drop is acceptable only
               if the daemon genuinely had not dropped us yet — but at
               6x the idle budget it must have *)
            Alcotest.fail "idle connection survived 6x the idle budget");
          (* reconnect converges *)
          let rng = Mps_rng.Rng.create ~seed:4 in
          let ids, _ =
            ok_or_fail "reconnect after idle drop"
              (Client.with_retry ~attempts:4 ~base_delay:0.005 ~rng client (fun () ->
                   Client.query_ids client ~circuit:circuit_name dims))
          in
          check_bool "post-idle answers correct" true (ids = expected_ids dims)))

(* --- Pipelining -------------------------------------------------------- *)

let pipelined_batches () =
  with_server (fun _server addr ->
      with_client addr (fun client ->
          let batches = Array.init 12 (fun i -> random_batch ~seed:(200 + i) 8) in
          let results =
            Client.query_ids_pipelined ~depth:4 client ~circuit:circuit_name batches
          in
          check_int "one result per batch" (Array.length batches)
            (Array.length results);
          Array.iteri
            (fun i r ->
              let ids, _ = ok_or_fail (Printf.sprintf "pipelined batch %d" i) r in
              check_bool
                (Printf.sprintf "pipelined batch %d matches the oracle" i)
                true
                (ids = expected_ids batches.(i)))
            results;
          check_bool "request frames actually overlapped" true
            ((Client.stats client).Client.pipelined > 0)))

(* --- Worker faults: crash isolation, supervision, hedging -------------- *)

(* A worker crash mid-request is a typed, retryable [Err_worker_lost]
   reply — never a hang or a wrong answer — and the supervised restart
   lets the same client converge. *)
let worker_crash_typed_reply () =
  let plan = [ inj Fault.Worker_crash 2 Fault.Fail 1 ] in
  let hook, fired = Fault.worker_hook_of_plan plan in
  let config = { Server.default_config with Server.restart_base_delay = 0.02 } in
  with_server ~config ~fault:hook (fun server addr ->
      with_client addr (fun client ->
          let _ = ok_or_fail "ping" (Client.ping client) in
          let dims = random_batch ~seed:61 8 in
          (* ping = request 1, open = 2, query = 3 -> the crash fires
             while the query is being served *)
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error (Client.Refused (Wire.Err_worker_lost, _) as e) ->
            check_bool "worker loss is retryable" true (Client.retryable e)
          | Error (Client.Disconnected _) ->
            (* the sever may beat the typed farewell to the socket *)
            ()
          | Error e ->
            Alcotest.failf "expected worker-lost: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "crashed worker produced an answer");
          check_int "crash fired" 1 (fired ());
          check_bool "crash survives until counted" true
            (wait_until (fun () -> (Server.stats server).worker_crashes >= 1));
          let rng = Mps_rng.Rng.create ~seed:8 in
          let ids, _ =
            ok_or_fail "retry converges after the restart"
              (Client.with_retry ~attempts:8 ~base_delay:0.01 ~rng client (fun () ->
                   Client.query_ids client ~circuit:circuit_name dims))
          in
          check_bool "post-restart answers correct" true (ids = expected_ids dims);
          check_bool "worker restarted" true
            (wait_until (fun () -> (Server.stats server).worker_restarts >= 1))))

(* Kill workers under concurrent client load: no accepted connection
   is lost permanently — every client converges through typed errors
   and retry, and every answer matches the oracle. *)
let kill_worker_under_load () =
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      restart_base_delay = 0.02;
      restart_max_delay = 0.1;
    }
  in
  with_server ~config (fun server addr ->
      let mismatches = Atomic.make 0 in
      let failures = Atomic.make 0 in
      let threads =
        List.init 3 (fun k ->
            Thread.create
              (fun () ->
                let client = Client.connect addr in
                let rng = Mps_rng.Rng.create ~seed:(100 + k) in
                for i = 0 to 24 do
                  let dims = random_batch ~seed:((k * 1000) + i) 8 in
                  (match
                     Client.with_retry ~attempts:8 ~base_delay:0.01 ~rng client
                       (fun () ->
                         Client.query_ids ~budget:2.0 client ~circuit:circuit_name
                           dims)
                   with
                  | Ok (ids, _) ->
                    if ids <> expected_ids dims then Atomic.incr mismatches
                  | Error _ -> Atomic.incr failures);
                  Thread.delay 0.004
                done;
                Client.close client)
              ())
      in
      Thread.delay 0.03;
      let killed1 = Server.kill_worker server 0 in
      Thread.delay 0.1;
      ignore (Server.kill_worker server 1);
      List.iter Thread.join threads;
      check_bool "first kill landed on a live worker" true killed1;
      check_int "no mismatched answers under worker kills" 0
        (Atomic.get mismatches);
      check_int "every query converged" 0 (Atomic.get failures);
      let s = Server.stats server in
      check_bool "crashes counted" true (s.worker_crashes >= 1);
      check_bool "restarts counted" true (s.worker_restarts >= 1);
      check_bool "pool recovers to fully ready" true
        (wait_until (fun () ->
             let h = Server.health server in
             h.Wire.ready && all_up h)))

(* A restart storm trips the circuit breaker: extra slots park in
   [W_disabled], slot 0 keeps serving correct answers in degraded
   single-worker mode, and the health probe says so on the wire. *)
let restart_storm_breaker () =
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      restart_base_delay = 0.01;
      restart_max_delay = 0.05;
      breaker_window = 30.0;
      breaker_max_restarts = 2;
    }
  in
  with_server ~config (fun server addr ->
      let killed = ref 0 in
      let slot = ref 0 in
      let deadline = Unix.gettimeofday () +. 10.0 in
      (* alternate slots; a kill only lands on an Up worker, so poll
         through the restart windows until three crashes are in *)
      while !killed < 3 && Unix.gettimeofday () < deadline do
        if Server.kill_worker server (!slot land 1) then begin
          incr killed;
          incr slot
        end
        else Thread.delay 0.01
      done;
      check_int "three crashes injected" 3 !killed;
      check_bool "breaker tripped" true
        (wait_until (fun () -> (Server.health server).Wire.breaker));
      check_bool "trip counted" true ((Server.stats server).breaker_trips >= 1);
      check_bool "slot 1 parked, slot 0 back up" true
        (wait_until (fun () ->
             let h = Server.health server in
             h.Wire.workers.(1).Wire.w_state = Wire.W_disabled
             && h.Wire.workers.(0).Wire.w_state = Wire.W_up));
      check_bool "degraded pool is still ready" true
        (Server.health server).Wire.ready;
      with_client addr (fun client ->
          let rng = Mps_rng.Rng.create ~seed:7 in
          let dims = random_batch ~seed:77 16 in
          let ids, _ =
            ok_or_fail "served in degraded single-worker mode"
              (Client.with_retry ~attempts:6 ~base_delay:0.01 ~rng client (fun () ->
                   Client.query_ids client ~circuit:circuit_name dims))
          in
          check_bool "degraded-mode answers correct" true (ids = expected_ids dims);
          let h =
            ok_or_fail "health over the wire"
              (Client.with_retry ~attempts:6 ~base_delay:0.01 ~rng client (fun () ->
                   Client.health client))
          in
          check_bool "wire health shows the breaker" true h.Wire.breaker))

(* Readiness tracks worker state: kill one of two workers and the
   health probe (served by the survivor) stays ready while showing the
   dead slot restarting; after the backoff the slot is back up with
   its restart counted and a fresh generation epoch. *)
let readiness_flap () =
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      restart_base_delay = 0.6;
      restart_max_delay = 1.0;
    }
  in
  with_server ~config (fun server addr ->
      with_client addr (fun c0 ->
          let h0 = ok_or_fail "initial health" (Client.health c0) in
          check_bool "initially ready" true h0.Wire.ready;
          check_int "two workers" 2 (Array.length h0.Wire.workers);
          check_bool "all workers up" true (all_up h0);
          check_int "one spawn per worker" 2 h0.Wire.epoch);
      check_bool "kill landed" true (Server.kill_worker server 0);
      (* a fresh connection dispatches to the survivor *)
      with_client addr (fun c1 ->
          let rng = Mps_rng.Rng.create ~seed:9 in
          let h1 =
            ok_or_fail "health during the restart window"
              (Client.with_retry ~attempts:6 ~base_delay:0.01 ~rng c1 (fun () ->
                   Client.health c1))
          in
          check_bool "still ready on the survivor" true h1.Wire.ready;
          check_bool "dead slot reported restarting" true
            (h1.Wire.workers.(0).Wire.w_state = Wire.W_restarting);
          check_bool "flaps back to all-up" true
            (wait_until (fun () ->
                 let h = Server.health server in
                 h.Wire.ready && all_up h));
          let h2 =
            ok_or_fail "health after recovery"
              (Client.with_retry ~attempts:6 ~base_delay:0.01 ~rng c1 (fun () ->
                   Client.health c1))
          in
          check_bool "all up after the flap" true (all_up h2);
          check_int "respawn bumped the supervisor epoch" 3 h2.Wire.epoch;
          check_int "restart counted in health" 1
            h2.Wire.workers.(0).Wire.w_restarts))

(* A stalled worker wedges only its own connection: client 1's query
   stalls 600 ms in worker A, and client 2 — dispatched to the
   least-loaded worker B while that stall is in progress — still gets
   oracle-equal answers well inside it.  Client 1 is answered too,
   once its stall ends. *)
let stalled_worker_spares_others () =
  let plan = [ inj Fault.Worker_stall 1 (Fault.Stall 0.6) 1 ] in
  let hook, fired = Fault.worker_hook_of_plan plan in
  let config = { Server.default_config with Server.workers = 2 } in
  with_server ~config ~fault:hook (fun _server addr ->
      let dims1 = random_batch ~seed:71 8 in
      let stalled = ref None in
      (* open = request 1; the query (request 2) stalls *)
      let th =
        Thread.create
          (fun () ->
            with_client addr (fun c1 ->
                stalled := Some (Client.query_ids c1 ~circuit:circuit_name dims1)))
          ()
      in
      check_bool "client 1's query is stalled" true (wait_until (fun () -> fired () = 1));
      with_client addr (fun c2 ->
          let dims2 = random_batch ~seed:72 8 in
          let t0 = Unix.gettimeofday () in
          let ids, _ =
            ok_or_fail "client 2's query" (Client.query_ids c2 ~circuit:circuit_name dims2)
          in
          let dt = Unix.gettimeofday () -. t0 in
          check_bool "client 2's answers match the oracle" true (ids = expected_ids dims2);
          check_bool
            (Printf.sprintf "client 2 answered in %.3f s, inside the stall" dt)
            true (dt < 0.5));
      Thread.join th;
      let ids1, _ = ok_or_fail "client 1's stalled query" (Option.get !stalled) in
      check_bool "client 1's answers match the oracle" true (ids1 = expected_ids dims1))

(* The wire carries the budget as u32 microseconds.  A budget past that
   range (~71.6 min) must saturate, not wrap: wrapped, 4295 s encodes
   as ~33 ms and a 0.1 s stall is refused with [Err_timeout]. *)
let large_budget_saturates () =
  let plan = [ inj Fault.Worker_stall 1 (Fault.Stall 0.1) 1 ] in
  let hook, fired = Fault.worker_hook_of_plan plan in
  with_server ~fault:hook (fun _server addr ->
      with_client addr (fun client ->
          let dims = random_batch ~seed:81 8 in
          (* open = request 1; the query (request 2) stalls *)
          let ids, _ =
            ok_or_fail "query with a 4295 s budget"
              (Client.query_ids ~budget:4295.0 client ~circuit:circuit_name dims)
          in
          check_int "stall fired" 1 (fired ());
          check_bool "answers match the oracle" true (ids = expected_ids dims)))

(* The daemon binds loopback TCP on port 0, reports the port it got,
   and serves plain and pipelined queries over it. *)
let tcp_round_trip () =
  with_server ~tcp:true (fun _server addr ->
      (match addr with
      | Server.Tcp (_, port) -> check_bool "bound a nonzero port" true (port > 0)
      | Server.Unix_path _ -> Alcotest.fail "bound a Unix socket, not TCP");
      with_client addr (fun client ->
          let dims = random_batch ~seed:91 32 in
          let ids, _ =
            ok_or_fail "query over tcp" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "answers match the oracle" true (ids = expected_ids dims);
          let batches = Array.init 12 (fun k -> random_batch ~seed:(92 + k) 8) in
          let results =
            Client.query_ids_pipelined ~depth:4 client ~circuit:circuit_name batches
          in
          Array.iteri
            (fun k r ->
              let ids, _ = ok_or_fail (Printf.sprintf "pipelined batch %d" k) r in
              check_bool
                (Printf.sprintf "pipelined batch %d matches the oracle" k)
                true
                (ids = expected_ids batches.(k)))
            results;
          check_bool "frames were pipelined" true
            ((Client.stats client).Client.pipelined > 0)))

(* --- Store hot-reload race --------------------------------------------- *)

(* Concurrent forced reloads (with stalled reads widening the publish
   window) against querying threads: no thread ever sees a torn
   engine — every answer matches the oracle — and per-thread epochs
   are monotonic. *)
let store_reload_race () =
  with_tmp_dir (fun dir ->
      let store = Store.create ~dir () in
      Zcodec.save (Lazy.force structure) ~path:(Store.zpath_for store circuit_name);
      let plan = List.init 4 (fun i -> inj Fault.Map (i + 1) (Fault.Stall 0.03) 1) in
      let io, _ = Fault.io_of_plan plan in
      Persist.with_io io (fun () ->
          (* pin the initial load to epoch 1 (map occurrence 1, not
             stalled) before any contention starts *)
          (match Store.get store circuit_name with
          | Ok e -> check_int "initial epoch" 1 e.Store.epoch
          | Error e -> Alcotest.failf "initial load: %s" (Store.error_to_string e));
          let stop = Atomic.make false in
          let torn = Atomic.make 0 in
          let threads =
            List.init 3 (fun k ->
                Thread.create
                  (fun () ->
                    let dims = random_batch ~seed:(300 + k) 4 in
                    let expect = expected_ids dims in
                    let session = Structure.Engine.new_session () in
                    let last_epoch = ref 0 in
                    while not (Atomic.get stop) do
                      match Store.get store circuit_name with
                      | Error _ -> Atomic.incr torn
                      | Ok entry ->
                        if entry.Store.epoch < !last_epoch then Atomic.incr torn;
                        last_epoch := entry.Store.epoch;
                        let ids =
                          Array.map
                            (Structure.Engine.query_id entry.Store.engine session)
                            dims
                        in
                        if ids <> expect then Atomic.incr torn
                    done)
                  ())
          in
          let final = ref 0 in
          for _ = 1 to 5 do
            Thread.delay 0.01;
            match Store.reload store circuit_name with
            | Ok e -> final := e.Store.epoch
            | Error _ -> Atomic.incr torn
          done;
          Atomic.set stop true;
          List.iter Thread.join threads;
          check_int "no torn engine, failed get or epoch regression" 0
            (Atomic.get torn);
          check_int "five forced reloads landed" 6 !final))

(* --- The container and its typed salvage ------------------------------ *)

(* The store serves query-identical answers off the container mapping;
   a damaged container is salvaged from its own record table (typed,
   flagged degraded, served from the heap); a repaired container is
   remapped (epoch bump, no recompile); one beyond salvage is a typed
   error. *)
let store_prefers_container () =
  with_tmp_dir (fun dir ->
      let store = Store.create ~dir () in
      let s = Lazy.force structure in
      let zpath = Store.zpath_for store circuit_name in
      Zcodec.save s ~path:zpath;
      let dims = random_batch ~seed:77 64 in
      let expect = expected_ids dims in
      let check_answers tag entry =
        let session = Structure.Engine.new_session () in
        let ids =
          Array.map (Structure.Engine.query_id entry.Store.engine session) dims
        in
        check_bool (tag ^ ": answers match the oracle") true (ids = expect)
      in
      (match Store.get store circuit_name with
      | Error e -> Alcotest.failf "initial get: %s" (Store.error_to_string e)
      | Ok entry ->
        check_bool "served from the mapping" false entry.Store.salvaged;
        check_bool "loaded from the container" true (entry.Store.path = zpath);
        check_int "epoch 1" 1 entry.Store.epoch;
        check_bool "container load is not degraded" false entry.Store.degraded;
        check_answers "mapped" entry);
      (* damage the engine sections: the store salvages the records *)
      let raw = Persist.read_file ~path:zpath in
      Persist.atomic_write ~path:zpath (damage_engine_sections raw);
      (match Store.reload store circuit_name with
      | Error e -> Alcotest.failf "reload over damage: %s" (Store.error_to_string e)
      | Ok entry ->
        check_bool "salvaged, served from the heap" true entry.Store.salvaged;
        check_bool "salvage is flagged degraded" true entry.Store.degraded;
        check_int "epoch 2" 2 entry.Store.epoch;
        check_answers "salvaged" entry);
      (* repair the container: a reload remaps it *)
      Zcodec.save s ~path:zpath;
      (match Store.reload store circuit_name with
      | Error e -> Alcotest.failf "reload after repair: %s" (Store.error_to_string e)
      | Ok entry ->
        check_bool "repaired container remapped" false entry.Store.salvaged;
        check_bool "remapped entry is not degraded" false entry.Store.degraded;
        check_int "epoch 3" 3 entry.Store.epoch;
        check_answers "remapped" entry);
      (* a container cut inside its header is beyond salvage: typed *)
      Persist.atomic_write ~path:zpath (String.sub raw 0 64);
      match Store.reload store circuit_name with
      | Error (Store.Corrupt _) -> ()
      | Error e -> Alcotest.failf "expected Corrupt, got %s" (Store.error_to_string e)
      | Ok _ -> Alcotest.fail "a 64-byte container was served")

(* --- Shared-memory fast path (DESIGN.md §13) -------------------------- *)

(* Every shm scenario keeps the chaos suite's invariant: a ring fault
   surfaces as a typed client error or a transparent socket fallback,
   never as a wrong answer, a crash, or a SIGBUS — and the answers that
   do arrive are cross-checked against the in-process oracle. *)

(* The daemon's rings hold 64Ki words a direction, and a frame may
   take at most half of one. *)
let ring_fits len = Shm.frame_words ~len <= 32 * 1024

let shm_round_trip () =
  with_server (fun server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:21 48 in
          let ids, meta =
            ok_or_fail "query" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "ring negotiated" true (Client.ring_active client);
          check_bool "not degraded" false meta.Client.degraded;
          check_bool "ids match the oracle" true (ids = expected_ids dims);
          let sub = Array.sub dims 0 6 in
          let plans, _ =
            ok_or_fail "instantiate" (Client.instantiate client ~circuit:circuit_name sub)
          in
          let engine = Lazy.force oracle in
          let session = Structure.Engine.new_session () in
          Array.iteri
            (fun i rects ->
              check_bool
                (Printf.sprintf "floorplan %d matches the oracle" i)
                true
                (rects = Structure.Engine.instantiate engine session sub.(i)))
            plans;
          let cs = Client.stats client in
          check_bool "requests rode the ring" true (cs.Client.ring_requests >= 2);
          let ss = Server.stats server in
          check_int "one shm session" 1 ss.Server.shm_sessions;
          check_bool "ring-served requests counted" true (ss.Server.shm_served >= 2)))

(* A ring reply is the socket reply: the same batch sent raw on both
   channels of one session comes back with the same bytes after the
   request id, for queries and for instantiation alike. *)
let shm_ring_replies_match_socket () =
  with_server (fun server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let path = raw_shm_hello fd in
          let ring = Shm.attach ~path () in
          let handle, n = raw_open_circuit fd in
          let dims = random_batch ~seed:23 64 in
          let expect = expected_ids dims in
          check_bool "oracle has stored answers" true
            (Array.exists (fun id -> id >= 0) expect);
          List.iteri
            (fun k (label, opcode) ->
              let build = build_dims ~handle ~n dims in
              let status, sb, slen =
                raw_roundtrip fd ~opcode:(Wire.opcode_to_int opcode) ~deadline_us:0 ~build
              in
              check_bool "socket reply ok" true (status = Wire.Ok);
              let rb, rlen = raw_ring_roundtrip ring ~opcode ~req_id:(50 + k) ~build in
              check_int "ring reply id" (50 + k) (Wire.get_u32 rb ~len:rlen 1);
              check_bool
                (label ^ ": ring reply equals socket reply")
                true
                (Bytes.sub sb 5 (slen - 5) = Bytes.sub rb 5 (rlen - 5));
              if opcode = Wire.Query_batch then
                check_bool "ring ids match the oracle" true
                  (Array.init 64 (fun i ->
                       Wire.get_i32 rb ~len:rlen (Wire.reply_header_bytes + 4 + (i * 4)))
                  = expect))
            [ ("query", Wire.Query_batch); ("instantiate", Wire.Instantiate_batch) ];
          check_int "both ring requests served off the ring" 2
            (Server.stats server).Server.shm_served;
          Shm.close ring))

let shm_pipelined () =
  with_server (fun _server addr ->
      with_client ~shm:true addr (fun client ->
          let batches = Array.init 10 (fun i -> random_batch ~seed:(100 + i) 24) in
          let results =
            Client.query_ids_pipelined client ~circuit:circuit_name batches
          in
          Array.iteri
            (fun i r ->
              let ids, _ = ok_or_fail (Printf.sprintf "batch %d" i) r in
              check_bool
                (Printf.sprintf "batch %d matches the oracle" i)
                true
                (ids = expected_ids batches.(i)))
            results;
          let cs = Client.stats client in
          check_bool "pipeline rode the ring" true (cs.Client.ring_requests >= 10);
          check_bool "frames overlapped" true (cs.Client.pipelined > 0)))

(* A daemon that cannot make its session directory — a plain file
   holds the [.shm] path — declines the hello; the client stays on the
   socket and the answers are unchanged. *)
let shm_declined_falls_back () =
  let prepare dir = close_out (open_out (Filename.concat dir ".shm")) in
  with_server ~prepare (fun server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:25 16 in
          let ids, _ =
            ok_or_fail "query" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "no ring" false (Client.ring_active client);
          check_int "no ring requests" 0 (Client.stats client).Client.ring_requests;
          check_bool "socket answers match the oracle" true (ids = expected_ids dims);
          check_int "no sessions" 0 (Server.stats server).Server.shm_sessions))

(* chaos: the first reply frame published on the ring is torn.  The
   client reports a typed disconnect — never a wrong answer — and a
   retry renegotiates a fresh session and converges. *)
let shm_torn_frame_recovers () =
  let hooks, fired = Fault.shm_hooks_of_plan [ inj Fault.Shm_publish 0 Fault.Fail 1 ] in
  with_server ~shm_hooks:hooks (fun _server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:31 16 in
          let expect = expected_ids dims in
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error (Client.Disconnected _) -> ()
          | Error e -> Alcotest.failf "torn frame: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "a torn frame was delivered as an answer");
          check_int "tear fired" 1 (fired ());
          let rng = Mps_rng.Rng.create ~seed:7 in
          let ids, _ =
            ok_or_fail "retry after tear"
              (Client.with_retry ~rng client (fun () ->
                   Client.query_ids client ~circuit:circuit_name dims))
          in
          check_bool "converged to the oracle" true (ids = expect);
          check_bool "fresh ring negotiated" true (Client.ring_active client)))

(* chaos: bit flips after the checksum — a persistent CRC mismatch,
   indistinguishable from a tear; same typed outcome. *)
let shm_corrupt_frame_recovers () =
  let hooks, fired =
    Fault.shm_hooks_of_plan [ inj Fault.Shm_publish 0 (Fault.Corrupt 8) 99 ]
  in
  with_server ~shm_hooks:hooks (fun _server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:33 16 in
          let expect = expected_ids dims in
          (match Client.query_ids client ~circuit:circuit_name dims with
          | Error (Client.Disconnected _) -> ()
          | Error e -> Alcotest.failf "corrupt frame: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "a corrupt frame was delivered as an answer");
          check_int "corruption fired" 1 (fired ());
          let rng = Mps_rng.Rng.create ~seed:9 in
          let ids, _ =
            ok_or_fail "retry after corruption"
              (Client.with_retry ~rng client (fun () ->
                   Client.query_ids client ~circuit:circuit_name dims))
          in
          check_bool "converged to the oracle" true (ids = expect)))

(* chaos: the reply publication stalls past the client's budget — the
   deadline fires on the ring wait exactly as it would on a socket. *)
let shm_publish_stall_times_out () =
  let hooks, fired =
    Fault.shm_hooks_of_plan [ inj Fault.Shm_publish 0 (Fault.Stall 0.4) 1 ]
  in
  with_server ~shm_hooks:hooks (fun _server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:35 16 in
          (match Client.query_ids ~budget:0.08 client ~circuit:circuit_name dims with
          | Error Client.Timed_out | Error (Client.Disconnected _) -> ()
          | Error (Client.Refused (Wire.Err_timeout, _)) -> ()
          | Error e -> Alcotest.failf "stalled publish: %s" (Client.error_to_string e)
          | Ok _ -> Alcotest.fail "a stalled reply beat an 80 ms budget");
          check_int "stall fired" 1 (fired ());
          let ids, _ =
            ok_or_fail "after the stall"
              (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "converged to the oracle" true (ids = expected_ids dims)))

(* chaos: a wedged client — socket open, ring mapped, one ring request
   served and then silence on both channels.  Nothing closes, so the
   idle timeout reaps the session, as it drops a silent socket client,
   and the daemon hangs up. *)
let shm_wedged_client_reaped () =
  let config = { Server.default_config with Server.idle_timeout = 0.3 } in
  with_server ~config (fun server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let path = raw_shm_hello fd in
          let ring = Shm.attach ~path () in
          let handle, n = raw_open_circuit fd in
          check_int "the ring serves" (expected_ids [| Circuit.min_dims circuit |]).(0)
            (raw_ring_query ring ~handle ~n ~req_id:29);
          check_bool "session reaped within 2 s" true
            (wait_until ~timeout:2.0 (fun () ->
                 (Server.stats server).Server.shm_reaped >= 1));
          check_bool "ring file unlinked" true
            (wait_until (fun () -> not (Sys.file_exists path)));
          match
            Wire.recv_frame Transport.default
              ~deadline:(Unix.gettimeofday () +. 2.0)
              ~max_bytes:Wire.max_frame_default ~buf:(ref (Bytes.create 64)) fd
          with
          | exception Wire.Closed -> ()
          | _ -> Alcotest.fail "the daemon answered a wedged client"))

(* chaos: kill -9 — the kernel closes the socket, nobody closes the
   ring.  The EOF is the immediate reap signal; the ring file is
   unlinked so sessions cannot accumulate. *)
let shm_killed_client_reaped () =
  with_server (fun server addr ->
      let fd = connect_raw addr in
      let path = raw_shm_hello fd in
      let ring = Shm.attach ~path () in
      Unix.close fd;
      check_bool "session reaped on socket EOF" true
        (wait_until (fun () -> (Server.stats server).Server.shm_reaped >= 1));
      check_bool "ring file unlinked" true
        (wait_until (fun () -> not (Sys.file_exists path)));
      (* the survivor's mapping of the dead inode stays readable: typed
         errors, never SIGBUS *)
      match Shm.recv ~deadline:(Unix.gettimeofday () +. 0.2) ring ~buf:(ref (Bytes.create 64)) with
      | _ -> Alcotest.fail "recv on a reaped session returned data"
      | exception (Shm.Dead _ | Shm.Timeout) -> ())

(* chaos: the container is republished as a runt *under* the session.
   The rename keeps the server's old inode mapped and the pinned mtime
   keeps the store from reloading, so every answer, on a fresh
   connection too, still comes from the epoch being served: the
   oracle's ids, never bytes read from the runt. *)
let shm_runt_serves_mapped_epoch () =
  with_server (fun server addr ->
      let store = Server.store server in
      let zpath = Store.zpath_for store circuit_name in
      let t0 = 1_000_000_000.0 in
      Unix.utimes zpath t0 t0;
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:81 8 in
          let expect = expected_ids dims in
          check_bool "oracle has stored answers" true
            (Array.exists (fun id -> id >= 0) expect);
          let ids, meta =
            ok_or_fail "first query" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "first ids match the oracle" true (ids = expect);
          check_bool "ring active" true (Client.ring_active client);
          let runt = zpath ^ ".runt" in
          let oc = open_out_bin runt in
          output_string oc (String.make 64 '\000');
          close_out oc;
          Unix.rename runt zpath;
          Unix.utimes zpath t0 t0;
          Client.close client;
          let ids2, meta2 =
            ok_or_fail "after the runt" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "ids still match the oracle" true (ids2 = expect);
          check_int "same epoch" meta.Client.epoch meta2.Client.epoch;
          check_bool "a fresh ring carried it" true (Client.ring_active client)))

(* A reload bumps the epoch: the store remaps the container, replies
   carry the new epoch, and the ring survives. *)
let shm_reload_remaps () =
  with_server (fun _server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:41 16 in
          let expect = expected_ids dims in
          let ids, meta =
            ok_or_fail "first query" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_int "first epoch" 1 meta.Client.epoch;
          check_bool "first ids" true (ids = expect);
          let _ = ok_or_fail "reload" (Client.reload client ~circuit:circuit_name) in
          let ids2, meta2 =
            ok_or_fail "after reload" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_int "bumped epoch" 2 meta2.Client.epoch;
          check_bool "remapped ids" true (ids2 = expect);
          check_bool "ring survived the reload" true (Client.ring_active client)))

(* A batch that cannot fit the daemon's ring transparently rides the
   socket — the ring stays up for the batches that do fit. *)
let shm_large_batch_socket_fallback () =
  with_server (fun _server addr ->
      with_client ~shm:true addr (fun client ->
          let count = 20_000 in
          check_bool "the big request does not fit the ring" false
            (ring_fits (Wire.request_header_bytes + 6 + (count * 4 * Circuit.n_blocks circuit)));
          let big = random_batch ~seed:51 count in
          let ids, _ =
            ok_or_fail "big batch" (Client.query_ids client ~circuit:circuit_name big)
          in
          check_bool "ring negotiated" true (Client.ring_active client);
          check_int "big batch stayed on the socket" 0
            (Client.stats client).Client.ring_requests;
          check_bool "big ids match the oracle" true (ids = expected_ids big);
          let small = random_batch ~seed:53 4 in
          let ids2, _ =
            ok_or_fail "small batch" (Client.query_ids client ~circuit:circuit_name small)
          in
          check_int "small batch rode the ring" 1
            (Client.stats client).Client.ring_requests;
          check_bool "small ids match the oracle" true (ids2 = expected_ids small)))

(* The ring itself, driven directly: wraparound under sustained mixed
   frame sizes, refusal of impossible frames, typed timeout on an empty
   ring, typed death on peer close. *)
let shm_ring_direct () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "direct.ring" in
      let server = Shm.create ~ring_words:256 ~path () in
      let client = Shm.attach ~path () in
      let buf = ref (Bytes.create 16) in
      for i = 0 to 199 do
        let len = 1 + (i * 7 mod 900) in
        let s =
          String.init len (fun j -> Char.chr (((i * 37) + (j * 11) + 200) land 0xff))
        in
        let b = Bytes.of_string s in
        Shm.send client b ~off:0 ~len;
        let got = Shm.recv server ~buf in
        check_bool
          (Printf.sprintf "frame %d round-trips" i)
          true
          (got = len && Bytes.sub_string !buf 0 got = s);
        Shm.send server b ~off:0 ~len;
        let got2 = Shm.recv client ~buf in
        check_bool
          (Printf.sprintf "echo %d round-trips" i)
          true
          (got2 = len && Bytes.sub_string !buf 0 got2 = s)
      done;
      (match Shm.send client (Bytes.create 4096) ~off:0 ~len:4096 with
      | () -> Alcotest.fail "an impossible frame was accepted"
      | exception Invalid_argument _ -> ());
      (match Shm.recv ~deadline:(Unix.gettimeofday () +. 0.05) server ~buf with
      | _ -> Alcotest.fail "recv from an empty ring returned"
      | exception Shm.Timeout -> ());
      Shm.close client;
      (match Shm.recv ~deadline:(Unix.gettimeofday () +. 1.0) server ~buf with
      | _ -> Alcotest.fail "recv after peer close returned"
      | exception Shm.Dead _ -> ());
      Shm.remove server)

(* The parked words: each side sees the other's park and unpark, never
   its own.  The ring version is 4, and a file of an older version — 3,
   whose peers still judge each other by stamps in words 8 and 16, or
   1, which has no parked words — is refused with a typed [Dead], never
   mapped with the wrong layout. *)
let shm_parked_words_and_version () =
  check_int "ring version" 4 Shm.version;
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "parked.ring" in
      let server = Shm.create ~ring_words:256 ~path () in
      let client = Shm.attach ~path () in
      check_bool "fresh ring: client not parked" false (Shm.peer_parked server);
      check_bool "fresh ring: server not parked" false (Shm.peer_parked client);
      Shm.park client;
      check_bool "client park seen by the server" true (Shm.peer_parked server);
      check_bool "a park is not seen by its own side" false (Shm.peer_parked client);
      Shm.park client;
      check_bool "park is idempotent" true (Shm.peer_parked server);
      Shm.unpark client;
      check_bool "client unpark seen by the server" false (Shm.peer_parked server);
      Shm.park server;
      check_bool "server park seen by the client" true (Shm.peer_parked client);
      Shm.unpark server;
      check_bool "server unpark seen by the client" false (Shm.peer_parked client);
      Shm.remove server;
      List.iter
        (fun v ->
          let path = Filename.concat dir (Printf.sprintf "v%d.ring" v) in
          let old = Shm.create ~ring_words:256 ~path () in
          let words, _ = Persist.map_shared ~path () in
          words.{1} <- v;
          (match Shm.attach ~path () with
          | _ -> Alcotest.failf "a version-%d ring file was attached" v
          | exception Shm.Dead _ -> ());
          Shm.remove old)
        [ 3; 1 ])

(* --- Farewell mid-pipeline (reconnect integrity) ---------------------- *)

(* A hand-rolled daemon speaking just enough of the protocol to send a
   farewell [Err_overloaded] mid-pipeline on its first connection, then
   serve later connections fully — echoing the request id as every
   placement id, so a reply matched to the wrong slot is visible as a
   count mismatch or a wrong echo.  The client must fail the in-flight
   tail typed, leak nothing, and keep positional integrity after the
   reconnect. *)
let farewell_mid_pipeline () =
  with_tmp_dir (fun dir ->
      let sock = Filename.concat dir "fake.sock" in
      let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listen_fd (Unix.ADDR_UNIX sock);
      Unix.listen listen_fd 8;
      let stop = Atomic.make false in
      let send_reply fd ~status ~rep_id ~build =
        let buf = ref (Bytes.create 256) in
        let rh = Wire.reply_header_bytes in
        let prefix = Wire.frame_prefix_bytes in
        let body = build buf (prefix + rh) in
        let b = !buf in
        Wire.set_u8 b prefix (Wire.status_to_int status);
        Wire.set_u32 b (prefix + 1) rep_id;
        Wire.set_u32 b (prefix + 5) 1;
        Wire.send_frame Transport.default fd b ~payload_len:(rh + body)
      in
      let serve_conn ~farewell fd =
        let inbuf = ref (Bytes.create 4096) in
        let served = ref 0 in
        (try
           let rec loop () =
             let len =
               Wire.recv_frame Transport.default ~max_bytes:Wire.max_frame_default
                 ~buf:inbuf fd
             in
             let b = !inbuf in
             let opcode = Wire.get_u8 b ~len 0 in
             let req_id = Wire.get_u32 b ~len 1 in
             if opcode = Wire.opcode_to_int Wire.Open_circuit then begin
               send_reply fd ~status:Wire.Ok ~rep_id:req_id ~build:(fun buf off ->
                   Wire.ensure buf (off + 9);
                   let b = !buf in
                   Wire.set_u16 b off 1;
                   Wire.set_u8 b (off + 2) 0;
                   Wire.set_u16 b (off + 3) 1;
                   Wire.set_u32 b (off + 5) 1;
                   9);
               loop ()
             end
             else if opcode = Wire.opcode_to_int Wire.Query_batch then begin
               let count = Wire.get_u32 b ~len (Wire.request_header_bytes + 2) in
               incr served;
               if farewell && !served > 1 then
                 send_reply fd ~status:Wire.Err_overloaded ~rep_id:0
                   ~build:(fun buf off -> Wire.put_string16 buf off "shedding" - off)
               else begin
                 send_reply fd ~status:Wire.Ok ~rep_id:req_id ~build:(fun buf off ->
                     Wire.ensure buf (off + 4 + (count * 4));
                     let b = !buf in
                     Wire.set_u32 b off count;
                     for i = 0 to count - 1 do
                       Wire.set_i32 b (off + 4 + (i * 4)) req_id
                     done;
                     4 + (count * 4));
                 loop ()
               end
             end
             else loop ()
           in
           loop ()
         with _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let th =
        Thread.create
          (fun () ->
            let first = ref true in
            while not (Atomic.get stop) do
              match Unix.accept ~cloexec:true listen_fd with
              | fd, _ ->
                let farewell = !first in
                first := false;
                serve_conn ~farewell fd
              | exception Unix.Unix_error _ -> ()
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          (* closing a listener does not interrupt a blocked [accept]:
             wake the thread with a throwaway connection instead *)
          (try
             let w = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             Unix.connect w (Unix.ADDR_UNIX sock);
             Unix.close w
           with Unix.Unix_error _ -> ());
          Thread.join th;
          try Unix.close listen_fd with Unix.Unix_error _ -> ())
        (fun () ->
          with_client (Server.Unix_path sock) (fun client ->
              (* distinct counts per batch: a misrouted reply cannot parse *)
              let batches = Array.init 6 (fun i -> random_batch ~seed:i (i + 1)) in
              let results =
                Client.query_ids_pipelined ~depth:4 client ~circuit:circuit_name
                  batches
              in
              check_int "positional results" (Array.length batches)
                (Array.length results);
              let oks = ref 0 and refused = ref 0 and dropped = ref 0 in
              Array.iteri
                (fun i r ->
                  match r with
                  | Ok (ids, _) ->
                    incr oks;
                    check_int
                      (Printf.sprintf "batch %d count" i)
                      (Array.length batches.(i))
                      (Array.length ids);
                    check_bool
                      (Printf.sprintf "batch %d echo is uniform" i)
                      true
                      (Array.for_all (fun id -> id = ids.(0)) ids)
                  | Error (Client.Refused (Wire.Err_overloaded, _)) -> incr refused
                  | Error (Client.Disconnected _) -> incr dropped
                  | Error e ->
                    Alcotest.failf "batch %d: %s" i (Client.error_to_string e))
                results;
              check_bool "served before the farewell" true (!oks >= 1);
              check_bool "in-flight tail refused typed" true (!refused >= 1);
              check_int "every batch accounted for" (Array.length batches)
                (!oks + !refused + !dropped);
              (* after the reconnect: clean slate, no leaked slots, and
                 strictly increasing echoes prove each reply matched the
                 request that asked for it *)
              let results2 =
                Client.query_ids_pipelined ~depth:4 client ~circuit:circuit_name
                  batches
              in
              let echoes =
                Array.mapi
                  (fun i r ->
                    let ids, _ = ok_or_fail (Printf.sprintf "retry batch %d" i) r in
                    check_int
                      (Printf.sprintf "retry batch %d count" i)
                      (Array.length batches.(i))
                      (Array.length ids);
                    check_bool
                      (Printf.sprintf "retry batch %d echo is uniform" i)
                      true
                      (Array.for_all (fun id -> id = ids.(0)) ids);
                    ids.(0))
                  results2
              in
              Array.iteri
                (fun i e ->
                  if i > 0 then
                    check_bool
                      (Printf.sprintf "echo %d ordered" i)
                      true
                      (e > echoes.(i - 1)))
                echoes;
              check_bool "client reconnected once" true
                ((Client.stats client).Client.connects >= 2))))

(* Ring files under a store directory's session directory. *)
let ring_files dir =
  let shm = Filename.concat dir ".shm" in
  if Sys.file_exists shm then
    List.length
      (List.filter (fun f -> Filename.check_suffix f ".ring") (Array.to_list (Sys.readdir shm)))
  else 0

(* SIGTERM is handled on whichever thread the runtime picks, possibly
   one holding the supervisor mutex — here a health prober keeps one
   such thread busy.  With socket and shm clients mid-request, the
   drain the signal starts must still finish — [run] returns — and
   leave no ring file behind.  The signal comes from another process,
   as in production ([Unix.kill] on ourselves would run the handler on
   the sending thread), and the round repeats so it lands in many
   different places. *)
let sigterm_drain_under_load () =
  let config =
    { Server.default_config with Server.workers = 2; drain_timeout = 2.0 }
  in
  for round = 1 to 50 do
    with_tmp_dir (fun dir ->
        let store = Store.create ~dir () in
        Zcodec.save (Lazy.force structure) ~path:(Store.zpath_for store circuit_name);
        let server =
          Server.create ~config ~store
            (Server.Unix_path (Filename.concat dir "mpsd.sock"))
        in
        let addr = Server.bound_addr server in
        let prev_term = Sys.signal Sys.sigterm Sys.Signal_default in
        let prev_int = Sys.signal Sys.sigint Sys.Signal_default in
        Server.install_sigterm server;
        let returned = Atomic.make false in
        let th =
          Thread.create
            (fun () ->
              Server.run server;
              Atomic.set returned true)
            ()
        in
        let answered = Atomic.make 0 in
        let clients =
          List.init 4 (fun k ->
              Thread.create
                (fun () ->
                  let client = Client.connect ~shm:(k mod 2 = 1) addr in
                  let rec loop i =
                    let dims = random_batch ~seed:((round * 1000) + (k * 100) + i) 4 in
                    match Client.query_ids ~budget:1.0 client ~circuit:circuit_name dims with
                    | Ok (ids, _) ->
                      if ids = expected_ids dims then Atomic.incr answered;
                      loop (i + 1)
                    | Error _ -> ()
                  in
                  loop 0;
                  Client.close client)
                ())
        in
        let prober =
          Thread.create
            (fun () ->
              while not (Atomic.get returned) do
                ignore (Server.health server);
                Thread.yield ()
              done)
            ()
        in
        check_bool "clients are mid-request" true
          (wait_until (fun () -> Atomic.get answered >= 8));
        let kill =
          Unix.create_process "kill"
            [| "kill"; "-TERM"; string_of_int (Unix.getpid ()) |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        let rec reap () =
          try ignore (Unix.waitpid [] kill)
          with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        in
        reap ();
        let drained = wait_until ~timeout:10.0 (fun () -> Atomic.get returned) in
        if drained then begin
          Sys.set_signal Sys.sigterm prev_term;
          Sys.set_signal Sys.sigint prev_int
        end;
        check_bool (Printf.sprintf "round %d: run returns after SIGTERM" round) true drained;
        List.iter Thread.join (th :: prober :: clients);
        check_int (Printf.sprintf "round %d: ring files left" round) 0 (ring_files dir))
  done

(* --- Doorbells (DESIGN.md §13, ring discipline) ------------------------ *)

(* The sizing loop of Fig. 1b: one placement, then a pause.  The daemon
   parks between requests and each request rings it awake; every reply
   is stalled 10 ms before its publication, so the client has always
   parked by then and the daemon must ring it back.  Every answer is
   the oracle's and every request rode the ring. *)
let shm_doorbell_sizing_loop () =
  let hooks =
    { Shm.on_publish = (fun () -> Some (Shm.Publish_stall 0.01)) }
  in
  with_server ~shm_hooks:hooks (fun server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:61 16 in
          let expect = expected_ids dims in
          let _ =
            ok_or_fail "open" (Client.query_ids client ~circuit:circuit_name [| dims.(0) |])
          in
          check_bool "ring negotiated" true (Client.ring_active client);
          let ring0 = (Client.stats client).Client.ring_requests in
          Array.iteri
            (fun i d ->
              Thread.delay 0.02;
              let ids, _ =
                ok_or_fail (Printf.sprintf "query %d" i)
                  (Client.query_ids client ~circuit:circuit_name [| d |])
              in
              check_int (Printf.sprintf "query %d id" i) expect.(i) ids.(0))
            dims;
          check_int "every query rode the ring" 16
            ((Client.stats client).Client.ring_requests - ring0);
          check_bool "the daemon rang a parked client" true
            ((Server.stats server).Server.shm_doorbells >= 1)))

(* A zero-length frame is a doorbell, not a request: the daemon answers
   nothing on the socket (it used to send a request-id-0 error, which a
   client reads as a farewell), and the session keeps serving. *)
let shm_doorbell_frame_not_answered () =
  with_server (fun _server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let path = raw_shm_hello fd in
          let ring = Shm.attach ~path () in
          let handle, n = raw_open_circuit fd in
          let want = (expected_ids [| Circuit.min_dims circuit |]).(0) in
          check_int "query before the doorbell" want
            (raw_ring_query ring ~handle ~n ~req_id:41);
          Wire.send_frame Transport.default fd (Bytes.create 4) ~payload_len:0;
          (match Unix.select [ fd ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ -> Alcotest.fail "the daemon answered a zero-length frame");
          check_int "query after the doorbell" want
            (raw_ring_query ring ~handle ~n ~req_id:42);
          Shm.close ring))

(* chaos: a ring client writes half a control-frame length prefix and
   stalls.  The read of the rest is bounded by the idle timeout, so the
   session is reaped instead of wedging its loop, and the daemon keeps
   serving others. *)
let shm_stalled_control_frame_reaped () =
  let config = { Server.default_config with Server.idle_timeout = 0.3 } in
  with_server ~config (fun server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Shm.attach ~path:(raw_shm_hello fd) () : Shm.t);
          ignore (Unix.write_substring fd "\x10\x00" 0 2);
          check_bool "session reaped within 2 s" true
            (wait_until ~timeout:2.0 (fun () ->
                 (Server.stats server).Server.shm_reaped >= 1));
          with_client ~shm:true addr (fun client ->
              let dims = random_batch ~seed:63 8 in
              let ids, _ =
                ok_or_fail "second client"
                  (Client.query_ids client ~circuit:circuit_name dims)
              in
              check_bool "second client matches the oracle" true
                (ids = expected_ids dims))))

(* A hello that carries another ring version, or none, is declined up
   front: no session, no ring file, and the connection keeps serving on
   the socket.  A version-3 client, which would stamp liveness words
   this daemon never reads, is among them. *)
let shm_hello_version_declined () =
  check_int "ring version" 4 Shm.version;
  with_server (fun server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun build ->
              let status, b, len =
                raw_roundtrip fd ~opcode:(Wire.opcode_to_int Wire.Shm_hello)
                  ~deadline_us:0 ~build
              in
              check_bool "hello answered" true (status = Wire.Ok);
              check_int "hello declined" 0 (Wire.get_u8 b ~len Wire.reply_header_bytes))
            [
              put_version (Shm.version + 1);
              put_version 3;
              put_version 1;
              (fun _ _ -> 0);
            ];
          check_int "no sessions" 0 (Server.stats server).Server.shm_sessions;
          check_int "no ring files" 0 (ring_files (Store.dir (Server.store server)));
          ignore (raw_open_circuit fd)))

(* The server's reply fallback: an instantiation batch whose request
   fits the ring but whose reply cannot rides the ring out and comes
   back on the socket, equal to the in-process engine's floorplans, and
   the ring keeps serving. *)
let shm_oversized_reply_socket_fallback () =
  with_server (fun server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:71 8000 in
          let n = Circuit.n_blocks circuit and count = Array.length dims in
          check_bool "the request fits the ring" true
            (ring_fits (Wire.request_header_bytes + 6 + (count * 4 * n)));
          check_bool "the reply does not" false
            (ring_fits (Wire.reply_header_bytes + 4 + (count * 16 * n)));
          let plans, _ =
            ok_or_fail "instantiate" (Client.instantiate client ~circuit:circuit_name dims)
          in
          check_int "the request rode the ring" 1 (Client.stats client).Client.ring_requests;
          check_int "the server took it off the ring" 1 (Server.stats server).Server.shm_served;
          let engine = Lazy.force oracle in
          let session = Structure.Engine.new_session () in
          Array.iteri
            (fun i rects ->
              check_bool
                (Printf.sprintf "floorplan %d matches the engine" i)
                true
                (rects = Structure.Engine.instantiate engine session dims.(i)))
            plans;
          check_bool "ring still active" true (Client.ring_active client);
          let small = random_batch ~seed:73 4 in
          let ids, _ =
            ok_or_fail "small batch" (Client.query_ids client ~circuit:circuit_name small)
          in
          check_bool "small ids match the oracle" true (ids = expected_ids small);
          check_int "the small batch rode the ring" 2
            (Client.stats client).Client.ring_requests))

(* --- Store refresh (DESIGN.md §13) --------------------------------------- *)

(* Rewrite the circuit's container with a newer mtime, as a repair or
   a regeneration does. *)
let rewrite_container store =
  let path = Store.zpath_for store circuit_name in
  Zcodec.save (Lazy.force structure) ~path;
  let later = Unix.gettimeofday () +. 10.0 in
  Unix.utimes path later later

(* A daemon whose store debounces at 50 ms keeps every check fresh from
   its supervision thread: a paced query loop never stats on the
   request path, and a rewritten container is served at the new epoch
   within 0.15 s. *)
let store_refresh_off_request_path () =
  with_server ~stat_interval:0.05 (fun server addr ->
      with_client ~shm:true addr (fun client ->
          let store = Server.store server in
          let dims = random_batch ~seed:81 4 in
          let expect = expected_ids dims in
          let query tag =
            let ids, meta =
              ok_or_fail tag (Client.query_ids client ~circuit:circuit_name dims)
            in
            check_bool (tag ^ ": answers match the oracle") true (ids = expect);
            meta.Client.epoch
          in
          check_int "first epoch" 1 (query "first query");
          let stop = Unix.gettimeofday () +. 0.3 in
          while Unix.gettimeofday () < stop do
            check_int "paced query epoch" 1 (query "paced query");
            Thread.delay 0.01
          done;
          rewrite_container store;
          let t0 = Unix.gettimeofday () in
          let rec until_reloaded () =
            let took = Unix.gettimeofday () -. t0 in
            if query "query after rewrite" = 2 then took
            else if took > 2.0 then Alcotest.fail "the rewrite was never picked up"
            else begin
              Thread.delay 0.005;
              until_reloaded ()
            end
          in
          let took = until_reloaded () in
          check_bool
            (Printf.sprintf "new epoch served within 0.15 s (%.3f s)" took)
            true (took <= 0.15);
          let counts = Store.stat_counts store in
          check_int "no staleness stat on the request path" 0 counts.Store.request_path;
          check_bool "the refresher stats" true (counts.Store.refresher > 0)))

(* With no refresher, a debounced store stats inline once a check is
   overdue, so a rewrite is still picked up after the interval. *)
let store_refresh_inline_fallback () =
  with_tmp_dir (fun dir ->
      let store = Store.create ~stat_interval:0.05 ~dir () in
      Zcodec.save (Lazy.force structure) ~path:(Store.zpath_for store circuit_name);
      let epoch () =
        match Store.get store circuit_name with
        | Ok e -> e
        | Error e -> Alcotest.failf "store: %s" (Store.error_to_string e)
      in
      check_int "first epoch" 1 (epoch ()).Store.epoch;
      rewrite_container store;
      Thread.delay 0.08;
      let e = epoch () in
      check_int "the rewrite is picked up after the interval" 2 e.Store.epoch;
      let dims = random_batch ~seed:83 16 in
      let session = Structure.Engine.new_session () in
      check_bool "reloaded answers match the oracle" true
        (Array.map (Structure.Engine.query_id e.Store.engine session) dims
        = expected_ids dims);
      let counts = Store.stat_counts store in
      check_int "one inline stat" 1 counts.Store.request_path;
      check_int "no refresher" 0 counts.Store.refresher)

(* Ring first on a doorbell wake: while the daemon is parked, a ring
   query, a socket Stats request, a socket Ping and a doorbell arrive
   back to back.  The woken daemon takes the query off the ring before
   it reads the socket, so the Stats text already counts it as served.
   Each request is answered on its own channel, the query with the
   oracle's id, and the doorbell on neither. *)
let shm_ring_first_on_wake () =
  with_server (fun _server addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let path = raw_shm_hello fd in
          let ring = Shm.attach ~path () in
          let handle, n = raw_open_circuit fd in
          let want = (expected_ids [| Circuit.min_dims circuit |]).(0) in
          let prefix = Wire.frame_prefix_bytes and req_header = Wire.request_header_bytes in
          let query = ref (Bytes.create 256) in
          let body = build_batch ~handle ~n ~count:1 query req_header in
          let q = !query in
          Wire.set_u8 q 0 (Wire.opcode_to_int Wire.Query_batch);
          Wire.set_u32 q 1 51;
          Wire.set_u32 q 5 0;
          let control opcode req_id =
            let b = Bytes.create (prefix + req_header) in
            Wire.set_u8 b prefix (Wire.opcode_to_int opcode);
            Wire.set_u32 b (prefix + 1) req_id;
            Wire.set_u32 b (prefix + 5) 0;
            b
          in
          let stats = control Wire.Stats 52 and ping = control Wire.Ping 53 in
          check_bool "the daemon parks" true
            (wait_until ~timeout:2.0 (fun () -> Shm.peer_parked ring));
          Shm.send ring q ~off:0 ~len:(req_header + body);
          Wire.send_frame Transport.default fd stats ~payload_len:req_header;
          Wire.send_frame Transport.default fd ping ~payload_len:req_header;
          Wire.send_frame Transport.default fd (Bytes.create prefix) ~payload_len:0;
          let buf = ref (Bytes.create 256) in
          let socket_reply req_id =
            let len =
              Wire.recv_frame Transport.default
                ~deadline:(Unix.gettimeofday () +. 2.0)
                ~max_bytes:Wire.max_frame_default ~buf fd
            in
            check_bool "socket reply ok" true
              (Wire.status_of_int (Wire.get_u8 !buf ~len 0) = Some Wire.Ok);
            check_int "socket reply id" req_id (Wire.get_u32 !buf ~len 1);
            len
          in
          let len = socket_reply 52 in
          let text = fst (Wire.get_string16 !buf ~len Wire.reply_header_bytes) in
          let served_first = "shm: 1 sessions, 1 requests served" in
          let rec has i =
            i + String.length served_first <= String.length text
            && (String.sub text i (String.length served_first) = served_first || has (i + 1))
          in
          check_bool "the ring query was served before the socket was read" true (has 0);
          ignore (socket_reply 53 : int);
          (match Shm.try_recv ring ~buf with
          | None -> Alcotest.fail "no ring reply"
          | Some len ->
            check_bool "ring reply ok" true
              (Wire.status_of_int (Wire.get_u8 !buf ~len 0) = Some Wire.Ok);
            check_int "ring reply id" 51 (Wire.get_u32 !buf ~len 1);
            check_int "ring answer" want
              (Wire.get_i32 !buf ~len (Wire.reply_header_bytes + 4)));
          (match Unix.select [ fd ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ -> Alcotest.fail "the daemon answered the doorbell");
          check_int "the session keeps serving" want
            (raw_ring_query ring ~handle ~n ~req_id:54);
          Shm.close ring))

(* --- Socket-only liveness (DESIGN.md §13, reaping) ----------------------- *)

(* chaos: a raw client floods instantiation requests on the ring and
   reads no reply, so the daemon's reply ring fills and its worker
   waits for space; then the client queues a doorbell and a Ping on
   the socket, which nobody reads while the daemon waits, and its
   socket closes, as the kernel closes a kill -9'd client's.  The EOF
   behind those frames ends the wait: the session is reaped at once,
   its ring file unlinked, and a fresh client is served. *)
let shm_full_reply_ring_reaped_on_eof () =
  with_server (fun server addr ->
      let fd = connect_raw addr in
      let path = raw_shm_hello fd in
      let ring = Shm.attach ~path () in
      let handle, n = raw_open_circuit fd in
      let req_header = Wire.request_header_bytes in
      let buf = ref (Bytes.create 256) in
      let count = 1000 in
      let len = req_header + build_batch ~handle ~n ~count buf req_header in
      check_bool "nine replies overflow the reply ring" false
        (9 * Shm.frame_words ~len:(Wire.reply_header_bytes + 4 + (count * 16 * n))
        <= 64 * 1024);
      let b = !buf in
      Wire.set_u8 b 0 (Wire.opcode_to_int Wire.Instantiate_batch);
      Wire.set_u32 b 5 0;
      let rec flood req_id =
        Wire.set_u32 b 1 req_id;
        match Shm.send ~deadline:(Unix.gettimeofday () +. 0.5) ring b ~off:0 ~len with
        | () -> flood (req_id + 1)
        | exception Shm.Timeout -> req_id - 1
      in
      let sent = flood 1 in
      check_bool "the daemon stopped taking requests off the ring" true (sent > 9);
      let reaped = (Server.stats server).Server.shm_reaped in
      Wire.send_frame Transport.default fd (Bytes.create 4) ~payload_len:0;
      let ping = Bytes.create (Wire.frame_prefix_bytes + req_header) in
      Wire.set_u8 ping Wire.frame_prefix_bytes (Wire.opcode_to_int Wire.Ping);
      Wire.set_u32 ping (Wire.frame_prefix_bytes + 1) 99;
      Wire.set_u32 ping (Wire.frame_prefix_bytes + 5) 0;
      Wire.send_frame Transport.default fd ping ~payload_len:req_header;
      Unix.close fd;
      check_bool "session reaped within 2 s of the EOF" true
        (wait_until ~timeout:2.0 (fun () ->
             (Server.stats server).Server.shm_reaped = reaped + 1));
      check_bool "ring file unlinked" true
        (wait_until (fun () -> not (Sys.file_exists path)));
      with_client ~shm:true addr (fun client ->
          let dims = random_batch ~seed:91 8 in
          let ids, _ =
            ok_or_fail "fresh client" (Client.query_ids client ~circuit:circuit_name dims)
          in
          check_bool "fresh client matches the oracle" true (ids = expected_ids dims);
          check_bool "on a fresh ring" true (Client.ring_active client)))

(* chaos: a pipelined client with no budget sends big batches to a
   daemon whose worker stalls 1.5 s on the first of them; the next two
   fill the request ring and the client waits for space.  The daemon is
   aborted 0.2 s into the stall, as a kill -9 would end it: the
   socket's EOF ends the client's wait, and the call returns typed
   errors long before the stall would have ended. *)
let shm_aborted_daemon_ends_full_ring_wait () =
  let armed = Atomic.make false and stalled = Atomic.make false in
  let fault ~worker:_ =
    if Atomic.exchange armed false then begin
      Atomic.set stalled true;
      Thread.delay 1.5
    end
  in
  with_server ~fault (fun server addr ->
      with_client ~shm:true addr (fun client ->
          let dims = Circuit.min_dims circuit in
          ignore (ok_or_fail "warm-up" (Client.query_ids client ~circuit:circuit_name [| dims |]));
          check_bool "ring negotiated" true (Client.ring_active client);
          let count = 12_000 in
          let len = Wire.request_header_bytes + 6 + (count * 4 * Circuit.n_blocks circuit) in
          check_bool "a batch rides the ring, and three fill it" true
            (ring_fits len && 3 * Shm.frame_words ~len > 64 * 1024);
          let batches = Array.make 8 (Array.make count dims) in
          Atomic.set armed true;
          let killer =
            Thread.create
              (fun () ->
                ignore (wait_until (fun () -> Atomic.get stalled) : bool);
                Thread.delay 0.2;
                Server.abort server)
              ()
          in
          let t0 = Unix.gettimeofday () in
          let results =
            Client.query_ids_pipelined ~depth:8 client ~circuit:circuit_name batches
          in
          let took = Unix.gettimeofday () -. t0 in
          Thread.join killer;
          Array.iteri
            (fun i r ->
              match r with
              | Error (Client.Disconnected _ | Client.Timed_out) -> ()
              | Error e -> Alcotest.failf "batch %d: %s" i (Client.error_to_string e)
              | Ok _ -> Alcotest.failf "batch %d was answered by an aborted daemon" i)
            results;
          check_bool "a fourth batch went to the full ring" true
            ((Client.stats client).Client.ring_requests >= 5);
          check_bool (Printf.sprintf "returned within 1 s of the call (%.2f s)" took) true
            (took < 1.0)))

let suite =
  [
    Alcotest.test_case "round trip matches the in-process oracle" `Quick round_trip;
    Alcotest.test_case "unknown circuit and missing file are typed" `Quick
      unknown_and_missing;
    Alcotest.test_case "server-side deadline is enforced" `Quick server_side_deadline;
    Alcotest.test_case "malformed requests are rejected, connection lives" `Quick
      malformed_requests;
    Alcotest.test_case "in-flight admission sheds with Err_overloaded" `Quick
      shed_inflight;
    Alcotest.test_case "connection limit sheds, first client unharmed" `Quick
      shed_connections;
    Alcotest.test_case "chaos: short reads and writes heal" `Quick short_io_heals;
    Alcotest.test_case "chaos: stall past deadline, retry converges" `Quick
      stall_past_deadline;
    Alcotest.test_case "chaos: disconnect mid-request, retry converges" `Quick
      disconnect_mid_request;
    Alcotest.test_case "chaos: accept failure is survived" `Quick
      accept_failure_survived;
    Alcotest.test_case "chaos: crash, restart, client converges" `Quick
      crash_restart_converge;
    Alcotest.test_case "degraded entries are flagged, never silently wrong" `Quick
      degraded_serving;
    Alcotest.test_case "hot reload bumps epochs" `Quick hot_reload_epochs;
    Alcotest.test_case "idle connections are dropped" `Quick idle_timeout_drops;
    Alcotest.test_case "pipelined batches match the oracle" `Quick pipelined_batches;
    Alcotest.test_case "chaos: worker crash is a typed, retryable loss" `Quick
      worker_crash_typed_reply;
    Alcotest.test_case "chaos: workers killed under load, clients converge" `Quick
      kill_worker_under_load;
    Alcotest.test_case "chaos: restart storm trips the breaker" `Quick
      restart_storm_breaker;
    Alcotest.test_case "chaos: readiness flaps with worker state" `Quick
      readiness_flap;
    Alcotest.test_case "chaos: a stalled worker spares other clients" `Quick
      stalled_worker_spares_others;
    Alcotest.test_case "store prefers the container, falls back typed" `Quick
      store_prefers_container;
    Alcotest.test_case "store hot-reload race never serves a torn engine" `Quick
      store_reload_race;
    Alcotest.test_case "shm: ring round trip matches the oracle" `Quick
      shm_round_trip;
    Alcotest.test_case "shm: ring replies equal socket replies byte for byte" `Quick
      shm_ring_replies_match_socket;
    Alcotest.test_case "shm: pipelined batches ride the ring" `Quick shm_pipelined;
    Alcotest.test_case "shm: declined hello falls back to the socket" `Quick
      shm_declined_falls_back;
    Alcotest.test_case "shm chaos: torn frame is typed, retry converges" `Quick
      shm_torn_frame_recovers;
    Alcotest.test_case "shm chaos: corrupt frame is typed, retry converges" `Quick
      shm_corrupt_frame_recovers;
    Alcotest.test_case "shm chaos: stalled publish hits the deadline" `Quick
      shm_publish_stall_times_out;
    Alcotest.test_case "shm chaos: wedged client is reaped by idle timeout" `Quick
      shm_wedged_client_reaped;
    Alcotest.test_case "shm chaos: kill -9'd client is reaped on EOF" `Quick
      shm_killed_client_reaped;
    Alcotest.test_case "shm chaos: a runt republished mid-session serves the mapped epoch"
      `Quick shm_runt_serves_mapped_epoch;
    Alcotest.test_case "shm: reload remaps the container by epoch" `Quick
      shm_reload_remaps;
    Alcotest.test_case "shm: oversized batches fall back to the socket" `Quick
      shm_large_batch_socket_fallback;
    Alcotest.test_case "shm: ring wraparound, refusal, timeout, close" `Quick
      shm_ring_direct;
    Alcotest.test_case "pipelined farewell keeps positional integrity" `Quick
      farewell_mid_pipeline;
    Alcotest.test_case "chaos: SIGTERM drains cleanly under socket and shm load"
      `Quick sigterm_drain_under_load;
    Alcotest.test_case "a budget beyond the u32 wire range saturates" `Quick
      large_budget_saturates;
    Alcotest.test_case "tcp: bound port serves plain and pipelined queries" `Quick
      tcp_round_trip;
    Alcotest.test_case "shm: parked words and ring version 4" `Quick
      shm_parked_words_and_version;
    Alcotest.test_case "shm: doorbells wake parked peers in a sizing loop" `Quick
      shm_doorbell_sizing_loop;
    Alcotest.test_case "shm: a zero-length frame is not answered" `Quick
      shm_doorbell_frame_not_answered;
    Alcotest.test_case "shm chaos: a stalled control frame is reaped" `Quick
      shm_stalled_control_frame_reaped;
    Alcotest.test_case "shm: a hello of another ring version is declined" `Quick
      shm_hello_version_declined;
    Alcotest.test_case "shm: a reply too big for the ring comes back on the socket"
      `Quick shm_oversized_reply_socket_fallback;
    Alcotest.test_case "store refresh keeps stats off the request path" `Quick
      store_refresh_off_request_path;
    Alcotest.test_case "store without a refresher stats once a check is overdue" `Quick
      store_refresh_inline_fallback;
    Alcotest.test_case "shm: a woken daemon reads the ring before the socket" `Quick
      shm_ring_first_on_wake;
    Alcotest.test_case "shm chaos: a client gone with its reply ring full is reaped on EOF"
      `Quick shm_full_reply_ring_reaped_on_eof;
    Alcotest.test_case "shm chaos: an aborted daemon ends a client's full-ring wait"
      `Quick shm_aborted_daemon_ends_full_ring_wait;
  ]
