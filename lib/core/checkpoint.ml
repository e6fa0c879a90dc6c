open Mps_netlist
open Mps_placement

type walk = {
  w_step : int;
  w_cost : float;
  w_current : Placement.t;
  w_rng : Mps_rng.Rng.t;
}

type t = {
  step : int;
  dropped : int;
  chunk : int;
  walks : walk array;
  structure : Structure.t;
}

(* The generator-state section: step, dropped, chunk and the walk
   count, then one record per walk — step, cost as split IEEE-754
   words, 2n coordinates, the stream token's byte length and the token
   packed 4 bytes per word. *)
let state_words cp =
  let walk w =
    let token = Mps_rng.Rng.to_string w.w_rng in
    let hi, lo = Zcodec.float_words w.w_cost in
    Array.concat
      [
        [| w.w_step; hi; lo |];
        Array.concat
          (List.map (fun (x, y) -> [| x; y |]) (Array.to_list w.w_current.Placement.coords));
        [| String.length token |];
        Zcodec.string_words token;
      ]
  in
  Array.concat
    ([| cp.step; cp.dropped; cp.chunk; Array.length cp.walks |]
    :: Array.to_list (Array.map walk cp.walks))

let to_string cp = Zcodec.to_string ~state:(state_words cp) cp.structure

let corrupt fmt =
  Printf.ksprintf
    (fun reason -> raise (Zcodec.Error (Zcodec.Corrupt { section = "GENS"; reason })))
    fmt

let decode_state ~circuit ~die_w ~die_h (w : Persist.words) =
  let len = Bigarray.Array1.dim w in
  let pos = ref 0 in
  let next () =
    if !pos >= len then corrupt "truncated generator state";
    let v = w.{!pos} in
    incr pos;
    v
  in
  let count what =
    let v = next () in
    if v < 0 then corrupt "negative %s %d" what v;
    v
  in
  let step = count "step" in
  let dropped = count "dropped count" in
  let chunk = count "chunk" in
  let n_walks = count "walk count" in
  if n_walks < 1 || chunk < 1 then corrupt "needs walks >= 1 and chunk >= 1";
  let n = Circuit.n_blocks circuit in
  (* a count the section cannot hold is damage, refused before any
     record is read *)
  if n_walks > (len - !pos) / (4 + (2 * n)) then
    corrupt "walk count %d exceeds the section" n_walks;
  let walk _ =
    let w_step = count "walk step" in
    let word32 () =
      let v = next () in
      if v < 0 || v > 0xFFFF_FFFF then corrupt "cost word out of range";
      v
    in
    let hi = word32 () in
    let w_cost = Zcodec.float_of_words hi (word32 ()) in
    let coords =
      Array.init n (fun _ ->
          let x = next () in
          (x, next ()))
    in
    let w_current =
      match Placement.make ~coords ~die_w ~die_h with
      | p -> p
      | exception Invalid_argument msg -> corrupt "bad walk placement: %s" msg
    in
    let token_len = count "token length" in
    if token_len > 4 * (len - !pos) then corrupt "token length %d exceeds the section" token_len;
    let token = Zcodec.string_of_words w ~pos:!pos ~len:token_len in
    pos := !pos + ((token_len + 3) / 4);
    match Mps_rng.Rng.of_string token with
    | Some w_rng -> { w_step; w_cost; w_current; w_rng }
    | None -> corrupt "unreadable rng state"
  in
  let walks = Array.init n_walks walk in
  if !pos <> len then corrupt "%d trailing words" (len - !pos);
  (step, dropped, chunk, walks)

let of_string ~circuit raw =
  let view = Zcodec.of_string ~circuit raw in
  match view.Zcodec.state with
  | None ->
    raise
      (Zcodec.Error
         (Zcodec.Corrupt { section = "header"; reason = "not a checkpoint (no GENS section)" }))
  | Some words ->
    let structure =
      match Structure.Engine.structure view.Zcodec.engine with
      | s -> s
      | exception Invalid_argument msg ->
        raise (Zcodec.Error (Zcodec.Corrupt { section = "engine"; reason = msg }))
    in
    let die_w, die_h = Structure.die structure in
    let step, dropped, chunk, walks = decode_state ~circuit ~die_w ~die_h words in
    { step; dropped; chunk; walks; structure }

let save cp ~path = Zcodec.save ~state:(state_words cp) cp.structure ~path

let load ~circuit ~path =
  let raw =
    try Persist.read_file ~path
    with Sys_error msg -> raise (Zcodec.Error (Zcodec.Io_error msg))
  in
  of_string ~circuit raw
