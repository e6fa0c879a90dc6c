(* The shared-memory fast path for co-located clients (DESIGN.md §13).

   A session is one file-backed mapping holding a pair of
   single-producer/single-consumer rings: client->server (requests)
   and server->client (replies).  Both sides map the same file
   MAP_SHARED ({!Mps_core.Persist.map_shared}), so moving a frame is
   pointer arithmetic plus one memcpy out of the ring — no syscall, no
   kernel buffer.  The negotiating socket stays open as the control
   channel and the universal fallback; nothing here replaces it.

   Layout (8-byte little-endian words; each side's parked word sits on
   that side's 64-byte cache line, and head/tail words sit on their
   own, so the two sides never false-share):

     word 0   magic            word 1   version
     word 2   request-ring data words   word 3   reply-ring data words
     word 9   client parked             word 17  server parked
     word 24  request head (consumer)   word 32  request tail (producer)
     word 40  reply head                word 48  reply tail
     word 56  flags (bit 0 server closed, bit 1 client closed)
     word 64  request ring data, then reply ring data

   Head and tail are absolute monotonic word counters (position =
   counter mod capacity); a frame never wraps — a producer that cannot
   fit one before the ring's end publishes a skip marker (-1 length
   word) and continues at the boundary, and the consumer derives the
   same skip length from its own position.

   Frames carry their own integrity: [len_bytes][crc32][payload
   words][sidecar words].  The payload crosses the int-bigarray lens,
   which drops bit 63 of every word, so each sidecar word carries the
   bit-63s of up to 63 payload words and the reader reassembles exact
   bytes.  The CRC (over the stored payload+sidecar words, computed
   with {!Mps_core.Persist.crc32_words} on both sides) is the
   publication protocol: OCaml has no user-level memory fences, so a
   reader that catches a frame before all its stores landed sees a CRC
   mismatch, retries briefly, and — if the mismatch persists (a torn
   write: the producer died or was corrupted mid-frame) — surfaces a
   typed {!Dead}, never a wrong answer.

   Liveness is the control socket, not a futex: the kernel closes a
   kill -9'd peer's socket, and every wait that can outlast a peer
   watches for that EOF.  A waiting {!send} sleeps in a 200 us
   [select] on the socket it is given, so a full ring whose consumer
   died ends in a typed {!Dead}; the serving loops' {!await} blocks in
   the same [select].

   Waiting never parks in a futex either.  {!send} and {!recv} back
   off spin -> [Thread.yield] -> 200 us sleep; a yield lets only a
   thread of the same domain run, so toward the peer process it is one
   more spin.  The serving
   loops (server and client) wait in {!await}, which goes one step
   further: a consumer about to sleep sets its parked word ({!park}),
   looks at the ring once more, and then blocks for at most 200 us in
   [select] on the control socket.  A producer that published while
   the peer is parked rings a doorbell ({!ring_doorbell}) — a
   zero-length frame on that socket — which ends the select at once.
   A client that has just published a request ({!expect_reply}) polls
   for up to 200 us before it parks, and a woken side reads the ring
   before the socket, so a request costs one wake-up: the server's.
   Without fences the parked word and the tail can cross in flight (a
   lost wake-up); the 200 us timeout is the backstop that bounds it to
   the old latency, and a dead peer can still never leave the survivor
   blocked. *)

open Mps_core

let magic = 0x4D50_5352 (* "MPSR" *)
(* Version 2 added the parked words; version 3 keeps that layout and
   changes the payloads: a ring reply is byte for byte the socket's;
   version 4 leaves words 8 and 16 unused. *)
let version = 4
let header_words = 64
let default_ring_words = 64 * 1024 (* 512 KiB of data per direction *)

(* header word indices *)
let i_magic = 0
let i_version = 1
let i_req_cap = 2
let i_rep_cap = 3
let i_client_parked = 9
let i_server_parked = 17
let i_req_head = 24
let i_req_tail = 32
let i_rep_head = 40
let i_rep_tail = 48
let i_flags = 56

let flag_server_closed = 1
let flag_client_closed = 2

type publish_fault =
  | Publish_torn  (** damage one stored word after the CRC: a torn write *)
  | Publish_corrupt of int * int  (** seed, bit flips across the frame *)
  | Publish_stall of float  (** wedge before publishing *)

type hooks = { on_publish : unit -> publish_fault option }

let no_hooks = { on_publish = (fun () -> None) }

exception Dead of string
exception Timeout

type t = {
  path : string;
  a : Persist.words;
  tx_base : int;  (* data offset of the ring this side produces into *)
  tx_cap : int;
  tx_head : int;  (* header word indices *)
  tx_tail : int;
  rx_base : int;
  rx_cap : int;
  rx_head : int;
  rx_tail : int;
  own_park : int;
  peer_park : int;
  own_closed : int;  (* flag bit *)
  peer_closed_bit : int;
  hooks : hooks;
  mutable closed : bool;
  idle_steps : int ref;  (* {!await}'s gear: dry polls since the last frame *)
  mutable reply_due : float;  (* {!await} polls without parking until then *)
}

let path t = t.path
let ring_words_of_t t = t.tx_cap

(* words a payload of [len] bytes occupies on the ring *)
let frame_words ~len =
  let nw = (len + 7) / 8 in
  let ns = (nw + 62) / 63 in
  2 + nw + ns

(* A frame larger than half the ring could deadlock the producer
   against its own skip padding; both sides enforce the same cap. *)
let tx_max_frame_words t = t.tx_cap / 2
let rx_max_frame_words t = t.rx_cap / 2
let tx_fits t ~len = frame_words ~len <= tx_max_frame_words t

let now () = Unix.gettimeofday ()

let peer_closed t = t.a.{i_flags} land t.peer_closed_bit <> 0

(* The parked word is written only on a change: a consumer that never
   sleeps adds no stores to its line. *)
let park t = if t.a.{t.own_park} = 0 then t.a.{t.own_park} <- 1
let unpark t = if t.a.{t.own_park} <> 0 then t.a.{t.own_park} <- 0
let peer_parked t = t.a.{t.peer_park} <> 0

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.a.{i_flags} <- t.a.{i_flags} lor t.own_closed
  end

(* Unlink the backing file (the owner, when reaping the session).  The
   peer's live mapping stays valid on the dead inode — same rule as
   the MPSZ hot-reload path — so a racing reader degrades to typed
   errors, never SIGBUS. *)
let remove t = try Sys.remove t.path with Sys_error _ -> ()

let file_words ~ring_words = header_words + (2 * ring_words)

let make ~path ~owner ~hooks a ~req_cap ~rep_cap =
  {
    path;
    a;
    (* the server produces replies and consumes requests *)
    tx_base = (if owner then header_words + req_cap else header_words);
    tx_cap = (if owner then rep_cap else req_cap);
    tx_head = (if owner then i_rep_head else i_req_head);
    tx_tail = (if owner then i_rep_tail else i_req_tail);
    rx_base = (if owner then header_words else header_words + req_cap);
    rx_cap = (if owner then req_cap else rep_cap);
    rx_head = (if owner then i_req_head else i_rep_head);
    rx_tail = (if owner then i_req_tail else i_rep_tail);
    own_park = (if owner then i_server_parked else i_client_parked);
    peer_park = (if owner then i_client_parked else i_server_parked);
    own_closed = (if owner then flag_server_closed else flag_client_closed);
    peer_closed_bit = (if owner then flag_client_closed else flag_server_closed);
    hooks;
    closed = false;
    idle_steps = ref 0;
    reply_due = 0.0;
  }

let create ?(hooks = no_hooks) ?(ring_words = default_ring_words) ~path () =
  if ring_words < 256 then invalid_arg "Shm.create: ring_words < 256";
  let total = file_words ~ring_words in
  let a, _ = Persist.map_shared ~size:(total * 8) ~path () in
  Bigarray.Array1.fill a 0;
  a.{i_req_cap} <- ring_words;
  a.{i_rep_cap} <- ring_words;
  a.{i_version} <- version;
  a.{i_magic} <- magic;
  make ~path ~owner:true ~hooks a ~req_cap:ring_words ~rep_cap:ring_words

let attach ?(hooks = no_hooks) ~path () =
  let a, bytes =
    try Persist.map_shared ~path ()
    with Sys_error msg -> raise (Dead ("shm attach: " ^ msg))
  in
  if Bigarray.Array1.dim a < header_words then raise (Dead "shm attach: runt file");
  if a.{i_magic} <> magic then raise (Dead "shm attach: bad magic");
  if a.{i_version} <> version then raise (Dead "shm attach: unsupported version");
  let req_cap = a.{i_req_cap} and rep_cap = a.{i_rep_cap} in
  if
    req_cap < 256 || rep_cap < 256
    || (header_words + req_cap + rep_cap) * 8 <> bytes
  then raise (Dead "shm attach: malformed ring geometry");
  make ~path ~owner:false ~hooks a ~req_cap ~rep_cap

(* ---- frame encode / decode -------------------------------------- *)

(* Payload word [i] as the Int64 of bytes [off + 8i ..]; the last word
   is zero-padded past [len]. *)
let word_of_bytes b ~off ~len i =
  let p = off + (i * 8) in
  if p + 8 <= off + len then Bytes.get_int64_le b p
  else begin
    let v = ref 0L in
    for k = off + len - 1 downto p do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b k)))
    done;
    !v
  end

let seeded_flips ~seed ~flips a ~pos ~len =
  let rng = Mps_rng.Rng.create ~seed in
  for _ = 1 to flips do
    let i = pos + Mps_rng.Rng.int rng len in
    let bit = Mps_rng.Rng.int rng 63 in
    a.{i} <- a.{i} lxor (1 lsl bit)
  done

(* The first gears of every wait: 200 [cpu_relax] spins, then 32
   [Thread.yield]s.  [Thread.yield] only hands the domain's runtime
   lock to another thread of this domain waiting for it, and returns at
   once when none is (a few ns); it never calls sched_yield, so it
   does not give the core to a peer process on it.  Toward the peer the
   yields are 32 more spins.  [false] once both are spent: the caller
   sleeps. *)
let spin_step steps =
  if !steps < 200 then begin
    incr steps;
    Domain.cpu_relax ();
    true
  end
  else if !steps < 232 then begin
    incr steps;
    Thread.yield ();
    true
  end
  else false

(* The longest sleep of any wait: the select timeout, the backstop for
   a lost doorbell, and the longest a reply wait polls. *)
let backstop = 0.0002

(* The sleep gear with a control socket: at most [backstop] in
   [select] on it.  EOF there is the peer's death (the kernel closes a
   kill -9'd peer's socket).  Frames queued ahead of an EOF hide it
   from a read, but not from a zero-length send: that fails with EPIPE
   once a unix-socket peer has gone, and costs a live peer nothing. *)
let watch_control fd =
  let probe = Bytes.create 1 in
  match Unix.select [ fd ] [] [] backstop with
  | [], _, _ -> ()
  | _ ->
    if Unix.recv fd probe 0 1 [ Unix.MSG_PEEK ] = 0 then raise (Dead "shm peer hung up");
    ignore (Unix.send fd probe 0 0 [] : int);
    Thread.delay backstop
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Spin, yield, then sleep while a producer waits for ring space or a
   consumer for a frame.  The deadline, the closed flags and the
   control socket are re-checked on every backoff step, so a dead
   peer surfaces as a typed error, never a hang. *)
let wait_step t ~spins ~deadline ~control =
  if t.closed then raise (Dead "shm session closed");
  if peer_closed t then raise (Dead "shm peer closed");
  (match deadline with Some d when now () > d -> raise Timeout | _ -> ());
  if not (spin_step spins) then
    match control with Some fd -> watch_control fd | None -> Thread.delay backstop

let send ?deadline ?control t b ~off ~len =
  if t.closed then raise (Dead "shm session closed");
  let nw = (len + 7) / 8 in
  let ns = (nw + 62) / 63 in
  let fw = 2 + nw + ns in
  if fw > tx_max_frame_words t then
    invalid_arg
      (Printf.sprintf "Shm.send: %d-byte frame exceeds the ring (check tx_fits)" len);
  let a = t.a in
  let cap = t.tx_cap in
  (* wait for contiguous space (including skip padding to the boundary) *)
  let spins = ref 0 in
  let rec reserve () =
    let head = a.{t.tx_head} in
    let tail = a.{t.tx_tail} in
    let pos = tail mod cap in
    let room = cap - pos in
    let need = if fw <= room then fw else room + fw in
    if tail - head + need <= cap then (tail, pos, room)
    else begin
      wait_step t ~spins ~deadline ~control;
      reserve ()
    end
  in
  let tail, pos, room = reserve () in
  let tail, pos =
    if fw <= room then (tail, pos)
    else begin
      (* skip marker: the frame would wrap; pad to the boundary *)
      a.{t.tx_base + pos} <- -1;
      a.{t.tx_tail} <- tail + room;
      (tail + room, 0)
    end
  in
  let slot = t.tx_base + pos in
  let data = slot + 2 in
  for i = 0 to nw - 1 do
    let w = word_of_bytes b ~off ~len i in
    Bigarray.Array1.unsafe_set a (data + i) (Int64.to_int w);
    if Int64.logand w Int64.min_int <> 0L then begin
      let s = data + nw + (i / 63) in
      a.{s} <- a.{s} lor (1 lsl (i mod 63))
    end
  done;
  (* sidecar words not touched by the loop above must not inherit
     stale ring content *)
  for j = 0 to ns - 1 do
    let s = data + nw + j in
    let base = j * 63 in
    let mask = ref 0 in
    for k = 0 to 62 do
      let i = base + k in
      if i < nw && Int64.logand (word_of_bytes b ~off ~len i) Int64.min_int <> 0L
      then mask := !mask lor (1 lsl k)
    done;
    a.{s} <- !mask
  done;
  let crc =
    Int32.to_int (Persist.crc32_words a ~pos:data ~len:(nw + ns)) land 0xFFFF_FFFF
  in
  a.{slot + 1} <- crc;
  a.{slot} <- len;
  (match t.hooks.on_publish () with
  | None -> ()
  | Some (Publish_stall s) -> Thread.delay s
  | Some Publish_torn ->
    (* a word of the frame never lands (producer torn mid-write): the
       consumer must see a CRC mismatch, not a wrong answer *)
    a.{data} <- a.{data} lxor 0x5A5A_5A5A
  | Some (Publish_corrupt (seed, flips)) ->
    seeded_flips ~seed ~flips a ~pos:data ~len:(nw + ns));
  a.{t.tx_tail} <- tail + fw

(* Reconstruct payload bytes from stored words plus the bit-63
   sidecar. *)
let copy_out t ~slot ~len ~nw buf =
  Wire.ensure buf len;
  let b = !buf in
  let a = t.a in
  let data = slot + 2 in
  for i = 0 to nw - 1 do
    let stored = Bigarray.Array1.unsafe_get a (data + i) in
    let hi =
      a.{data + nw + (i / 63)} lsr (i mod 63) land 1
    in
    let w =
      Int64.logor
        (Int64.logand (Int64.of_int stored) Int64.max_int)
        (if hi = 1 then Int64.min_int else 0L)
    in
    let p = i * 8 in
    if p + 8 <= len then Bytes.set_int64_le b p w
    else
      for k = p to len - 1 do
        Bytes.set b k
          (Char.chr (Int64.to_int (Int64.shift_right_logical w (8 * (k - p))) land 0xff))
      done
  done

(* One non-blocking receive attempt.  [None] when the ring is empty; a
   frame that stays CRC-inconsistent through the retry window (or
   claims an impossible geometry) raises [Dead] — the producer tore
   mid-write or the ring was corrupted, and no answer is better than a
   wrong one. *)
let try_recv t ~buf =
  if t.closed then raise (Dead "shm session closed");
  let a = t.a in
  let cap = t.rx_cap in
  let rec go () =
    let head = a.{t.rx_head} in
    let tail = a.{t.rx_tail} in
    if tail - head <= 0 then begin
      if peer_closed t then raise (Dead "shm peer closed") else None
    end
    else begin
      let pos = head mod cap in
      let lenw = a.{t.rx_base + pos} in
      if lenw = -1 then begin
        (* skip padding to the ring boundary *)
        a.{t.rx_head} <- head + (cap - pos);
        go ()
      end
      else begin
        let geometry_ok len =
          len >= 0 && frame_words ~len <= rx_max_frame_words t
          && frame_words ~len <= tail - head
        in
        (* CRC-retry publication: without fences a reader can observe
           the tail before the frame's stores; a transient mismatch
           heals in a few spins, a persistent one is a torn write *)
        let rec check attempts =
          let len = a.{t.rx_base + pos} in
          if not (geometry_ok len) then
            if attempts > 0 then begin
              Domain.cpu_relax ();
              check (attempts - 1)
            end
            else raise (Dead "shm ring: torn frame (bad geometry)")
          else begin
            let nw = (len + 7) / 8 in
            let ns = (nw + 62) / 63 in
            let slot = t.rx_base + pos in
            let crc =
              Int32.to_int (Persist.crc32_words a ~pos:(slot + 2) ~len:(nw + ns))
              land 0xFFFF_FFFF
            in
            if crc = a.{slot + 1} then (len, nw, slot)
            else if attempts > 0 then begin
              if attempts land 15 = 0 then Thread.delay 0.0002
              else Domain.cpu_relax ();
              check (attempts - 1)
            end
            else raise (Dead "shm ring: torn frame (crc mismatch)")
          end
        in
        let len, nw, slot = check 64 in
        copy_out t ~slot ~len ~nw buf;
        a.{t.rx_head} <- head + frame_words ~len;
        Some len
      end
    end
  in
  go ()

(* Blocking receive with the same backoff and the same typed outcomes
   as the send path. *)
let recv ?deadline t ~buf =
  let spins = ref 0 in
  let rec go () =
    match try_recv t ~buf with
    | Some len -> len
    | None ->
      wait_step t ~spins ~deadline ~control:None;
      go ()
  in
  go ()

(* ---- waking parked peers ----------------------------------------- *)

type wake = Frame of int | Socket | Idle

let expect_reply t = t.reply_due <- now () +. backstop

(* Spin, yield, then park: the gear position survives across calls, so
   a consumer that stays idle goes straight back to its select instead
   of re-spinning every 200 us.  The park lands before the last ring
   check, so a frame published before it is found there and one
   published after it finds the parked word and rings.

   Two refinements keep a request to one wake-up, the peer's.  While a
   reply is due ({!expect_reply}) the consumer polls instead of
   parking, [cpu_relax] with a [Thread.yield] every 64 polls so that
   another thread of this domain still runs (it does not give the core
   to the peer process): the reply is at least one peer wake-up away,
   and parking would add a wake-up of its own.  And a
   select woken by the socket looks at the ring before reporting
   [Socket], so the frame a doorbell announces is taken at once; the
   doorbell itself stays on the socket for a later turn to drop, and a
   control frame is reported whenever the ring is empty. *)
let await t fd ~buf =
  let got len =
    t.idle_steps := 0;
    t.reply_due <- 0.0;
    unpark t;
    Frame len
  in
  let rec go polls =
    match try_recv t ~buf with
    | Some len -> got len
    | None ->
      if t.reply_due > 0.0 then begin
        if polls land 63 <> 63 then Domain.cpu_relax ()
        else begin
          Thread.yield ();
          if now () >= t.reply_due then t.reply_due <- 0.0
        end;
        go (polls + 1)
      end
      else if spin_step t.idle_steps then go polls
      else if t.a.{t.own_park} = 0 then begin
        park t;
        go polls
      end
      else begin
        match Unix.select [ fd ] [] [] backstop with
        | [], _, _ -> Idle
        | _ -> (
          match try_recv t ~buf with
          | Some len -> got len
          | None ->
            unpark t;
            Socket)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> Idle
      end
  in
  go 0

let ring_doorbell t transport fd =
  peer_parked t
  && begin
    Wire.send_frame transport fd (Bytes.create Wire.frame_prefix_bytes) ~payload_len:0;
    true
  end
