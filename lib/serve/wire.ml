type opcode =
  | Ping
  | Open_circuit
  | Query_batch
  | Instantiate_batch
  | Stats
  | Reload
  | Health
  | Shm_hello

type status =
  | Ok
  | Ok_degraded
  | Err_timeout
  | Err_overloaded
  | Err_bad_request
  | Err_unknown_circuit
  | Err_store
  | Err_shutting_down
  | Err_worker_lost

let opcode_to_int = function
  | Ping -> 1
  | Open_circuit -> 2
  | Query_batch -> 3
  | Instantiate_batch -> 4
  | Stats -> 5
  | Reload -> 6
  | Health -> 7
  | Shm_hello -> 8

let opcode_of_int = function
  | 1 -> Some Ping
  | 2 -> Some Open_circuit
  | 3 -> Some Query_batch
  | 4 -> Some Instantiate_batch
  | 5 -> Some Stats
  | 6 -> Some Reload
  | 7 -> Some Health
  | 8 -> Some Shm_hello
  | _ -> None

(* Only these may be blindly retried: re-executing them cannot change
   server state ([Reload] bumps the store epoch; [Shm_hello] allocates
   a ring session). *)
let idempotent = function
  | Ping | Open_circuit | Query_batch | Instantiate_batch | Stats | Health -> true
  | Reload | Shm_hello -> false

let status_to_int = function
  | Ok -> 0
  | Ok_degraded -> 1
  | Err_timeout -> 2
  | Err_overloaded -> 3
  | Err_bad_request -> 4
  | Err_unknown_circuit -> 5
  | Err_store -> 6
  | Err_shutting_down -> 7
  | Err_worker_lost -> 8

let status_of_int = function
  | 0 -> Some Ok
  | 1 -> Some Ok_degraded
  | 2 -> Some Err_timeout
  | 3 -> Some Err_overloaded
  | 4 -> Some Err_bad_request
  | 5 -> Some Err_unknown_circuit
  | 6 -> Some Err_store
  | 7 -> Some Err_shutting_down
  | 8 -> Some Err_worker_lost
  | _ -> None

let status_to_string = function
  | Ok -> "ok"
  | Ok_degraded -> "ok-degraded"
  | Err_timeout -> "timeout"
  | Err_overloaded -> "overloaded"
  | Err_bad_request -> "bad-request"
  | Err_unknown_circuit -> "unknown-circuit"
  | Err_store -> "store-error"
  | Err_shutting_down -> "shutting-down"
  | Err_worker_lost -> "worker-lost"

let request_header_bytes = 9
let reply_header_bytes = 9
let frame_prefix_bytes = 4
let max_frame_default = 32 * 1024 * 1024

exception Closed
exception Truncated of string
exception Timed_out
exception Too_large of int

let ensure buf n =
  if Bytes.length !buf < n then begin
    let cap = ref (max 256 (Bytes.length !buf)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit !buf 0 fresh 0 (Bytes.length !buf);
    buf := fresh
  end

(* Wait for readability up to the absolute deadline.  EINTR retries
   with the remaining budget; a passed deadline raises. *)
let wait_readable fd deadline =
  match deadline with
  | None -> ()
  | Some d ->
    let rec wait () =
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0.0 then raise Timed_out;
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> raise Timed_out
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()

let recv_exactly transport ?deadline fd buf off len =
  let got = ref 0 in
  while !got < len do
    wait_readable fd deadline;
    match transport.Transport.recv fd buf (off + !got) (len - !got) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 ->
      if !got = 0 && off = 0 then raise Closed
      else raise (Truncated (Printf.sprintf "eof after %d of %d bytes" !got len))
    | n -> got := !got + n
  done

let recv_frame transport ?deadline ~max_bytes ~buf fd =
  let header = Bytes.create 4 in
  (* EOF before the first header byte is a clean close (recv_exactly
     raises Closed there); EOF anywhere later is a torn frame. *)
  recv_exactly transport ?deadline fd header 0 4;
  let len = Int32.to_int (Bytes.get_int32_le header 0) in
  if len < 0 || len > max_bytes then raise (Too_large len);
  ensure buf len;
  (try recv_exactly transport ?deadline fd !buf 0 len
   with Closed -> raise (Truncated "eof inside frame payload"));
  len

let send_frame transport fd buf ~payload_len =
  Bytes.set_int32_le buf 0 (Int32.of_int payload_len);
  let total = frame_prefix_bytes + payload_len in
  let sent = ref 0 in
  while !sent < total do
    let n =
      try transport.Transport.send fd buf !sent (total - !sent)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    sent := !sent + n
  done

let check len off n =
  if off < 0 || off + n > len then
    raise (Truncated (Printf.sprintf "field at %d+%d past payload end %d" off n len))

let get_u8 b ~len off =
  check len off 1;
  Char.code (Bytes.get b off)

let get_u16 b ~len off =
  check len off 2;
  Bytes.get_uint16_le b off

let get_i32 b ~len off =
  check len off 4;
  Int32.to_int (Bytes.get_int32_le b off)

let get_u32 b ~len off =
  let v = get_i32 b ~len off in
  v land 0xffffffff

let get_string16 b ~len off =
  let n = get_u16 b ~len off in
  check len (off + 2) n;
  (Bytes.sub_string b (off + 2) n, off + 2 + n)

let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let set_i32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let put_string16 buf off s =
  let n = String.length s in
  if n > 0xffff then invalid_arg "Wire.put_string16: string too long";
  ensure buf (off + 2 + n);
  set_u16 !buf off n;
  Bytes.blit_string s 0 !buf (off + 2) n;
  off + 2 + n

(* ---- the Health frame ------------------------------------------- *)

type worker_state = W_up | W_restarting | W_disabled

let worker_state_to_int = function W_up -> 0 | W_restarting -> 1 | W_disabled -> 2

let worker_state_of_int = function
  | 0 -> Some W_up
  | 1 -> Some W_restarting
  | 2 -> Some W_disabled
  | _ -> None

let worker_state_to_string = function
  | W_up -> "up"
  | W_restarting -> "restarting"
  | W_disabled -> "disabled"

type worker_health = {
  w_state : worker_state;
  w_restarts : int;
  w_queue : int;
  w_conns : int;
  w_epoch : int;
}

type health = {
  ready : bool;
  draining : bool;
  breaker : bool;
  epoch : int;
  workers : worker_health array;
}

let worker_health_bytes = 11

let put_health buf off h =
  let n = Array.length h.workers in
  if n > 0xff then invalid_arg "Wire.put_health: too many workers";
  let body = 8 + (n * worker_health_bytes) in
  ensure buf (off + body);
  let b = !buf in
  set_u8 b off (if h.ready then 1 else 0);
  set_u8 b (off + 1) (if h.draining then 1 else 0);
  set_u8 b (off + 2) (if h.breaker then 1 else 0);
  set_u8 b (off + 3) n;
  set_u32 b (off + 4) h.epoch;
  Array.iteri
    (fun i w ->
      let o = off + 8 + (i * worker_health_bytes) in
      set_u8 b o (worker_state_to_int w.w_state);
      set_u16 b (o + 1) (min 0xffff w.w_restarts);
      set_u16 b (o + 3) (min 0xffff w.w_queue);
      set_u16 b (o + 5) (min 0xffff w.w_conns);
      set_u32 b (o + 7) w.w_epoch)
    h.workers;
  off + body

let get_health b ~len off =
  let ready = get_u8 b ~len off = 1 in
  let draining = get_u8 b ~len (off + 1) = 1 in
  let breaker = get_u8 b ~len (off + 2) = 1 in
  let n = get_u8 b ~len (off + 3) in
  let epoch = get_u32 b ~len (off + 4) in
  let workers =
    Array.init n (fun i ->
        let o = off + 8 + (i * worker_health_bytes) in
        let w_state =
          match worker_state_of_int (get_u8 b ~len o) with
          | Some s -> s
          | None -> raise (Truncated "unknown worker state on the wire")
        in
        {
          w_state;
          w_restarts = get_u16 b ~len (o + 1);
          w_queue = get_u16 b ~len (o + 3);
          w_conns = get_u16 b ~len (o + 5);
          w_epoch = get_u32 b ~len (o + 7);
        })
  in
  { ready; draining; breaker; epoch; workers }

let health_to_string h =
  Printf.sprintf "%s%s%s epoch %d [%s]"
    (if h.ready then "ready" else "not-ready")
    (if h.draining then " draining" else "")
    (if h.breaker then " breaker-tripped" else "")
    h.epoch
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun i w ->
               Printf.sprintf "w%d %s restarts %d queue %d conns %d epoch %d" i
                 (worker_state_to_string w.w_state)
                 w.w_restarts w.w_queue w.w_conns w.w_epoch)
             h.workers)))
