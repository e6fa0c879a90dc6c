(* A generator is a mutable Random.State plus an immutable 64-bit
   stream key.  Draws come from the state; [split] derives child
   streams from the key alone (splitmix64 mixing), so splitting is
   pure — it neither consumes nor disturbs the parent's draw sequence.
   That is what lets parallel tasks get their streams by task id while
   the sequential path replays byte-for-byte. *)

type t = { state : Random.State.t; key : int64 }

(* splitmix64 finalizer (Steele, Lea & Flood 2014): a bijective mixer
   whose output passes BigCrush even on sequential inputs — exactly
   what turning (key, task_id) into an uncorrelated child seed
   needs. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

let create ~seed =
  (* The state construction predates the stream key and is pinned:
     checkpoints and tests depend on the sequential draw sequence. *)
  { state = Random.State.make [| seed; 0x6d70732d; 0x72657072 |];
    key = mix64 (Int64.add (Int64.of_int seed) golden) }

let split t id =
  if id < 0 then invalid_arg "Rng.split: stream id must be >= 0";
  let key = mix64 (Int64.add t.key (Int64.mul golden (Int64.of_int (id + 1)))) in
  let s0 = mix64 (Int64.logxor key 0x243f6a8885a308d3L) in
  let s1 = mix64 (Int64.add key golden) in
  let lo v = Int64.to_int (Int64.logand v 0xffffffffL) in
  let hi v = Int64.to_int (Int64.shift_right_logical v 32) in
  { state = Random.State.make [| lo s0; hi s0; lo s1; hi s1 |]; key }

let copy t = { state = Random.State.copy t.state; key = t.key }

(* The state is opaque, so serialization goes through Marshal; hex
   encoding keeps the token printable and whitespace-free.  Marshal
   round-trips Random.State bit-exactly (property-tested), which is what
   resume determinism needs.  The token is "<16-hex-digit key>.<hex
   marshal blob>". *)

let to_string t =
  let blob = Marshal.to_string (Random.State.copy t.state) [] in
  let buf = Buffer.create (17 + (2 * String.length blob)) in
  Buffer.add_string buf (Printf.sprintf "%016Lx." t.key);
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) blob;
  Buffer.contents buf

let hex c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* [Marshal.from_string] trusts its input: a well-formed blob of any
   other value would be accepted as a state and crash the first draw.
   Every marshalled state has the same shape — a fixed prefix, then
   the generator's 32 raw state bytes — so a blob is unmarshalled only
   when it equals a reference state's blob outside those bytes. *)
let reference_blob = Marshal.to_string (Random.State.make [| 0 |]) []
let state_bytes = 32

let shaped_like_state blob =
  let n = String.length reference_blob in
  String.length blob = n
  && String.sub blob 0 (n - state_bytes) = String.sub reference_blob 0 (n - state_bytes)

let state_of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then None
  else
    let blob = Bytes.create (len / 2) in
    let ok = ref true in
    for i = 0 to (len / 2) - 1 do
      match (hex s.[2 * i], hex s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set blob i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    let blob = Bytes.to_string blob in
    if !ok && shaped_like_state blob then
      Some (Marshal.from_string blob 0 : Random.State.t)
    else None

let key_of_hex s =
  if String.length s <> 16 then None
  else
    let rec go i acc =
      if i >= 16 then Some acc
      else
        match hex s.[i] with
        | Some d ->
            go (i + 1) (Int64.logor (Int64.shift_left acc 4) (Int64.of_int d))
        | None -> None
    in
    go 0 0L

let of_string s =
  match String.index_opt s '.' with
  | None -> None
  | Some i -> (
      match
        ( key_of_hex (String.sub s 0 i),
          state_of_hex (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some key, Some state -> Some { state; key }
      | _ -> None)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t.state n

let[@inline] unsafe_int t n = Random.State.int t.state n

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + Random.State.int t.state (hi - lo + 1)

let float t x = Random.State.float t.state x

let float_in t lo hi =
  if lo > hi then invalid_arg "Rng.float_in: empty range";
  lo +. Random.State.float t.state (hi -. lo)

let bool t = Random.State.bool t.state

let bernoulli t p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else Random.State.float t.state 1.0 < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(Random.State.int t.state (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t.state (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_distinct";
  let a = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: the first k slots end up as the sample. *)
  for i = 0 to k - 1 do
    let j = i + Random.State.int t.state (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)
