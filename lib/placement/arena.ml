open Mps_geometry
open Mps_netlist

(* One worker's reusable evaluation state.  The engine cache is keyed
   on (circuit physical identity, die): within a generation run those
   never change, so after the first candidate every [engine] call is a
   bit-exact [Incremental.reset] instead of a fresh [create].  Buffers
   are keyed on (slot, length): generation works on one circuit, so
   lengths are stable and reallocation happens once. *)
type t = {
  mutable eng : Mps_cost.Incremental.t option;
  mutable eng_circuit : Circuit.t option;
  mutable eng_die_w : int;
  mutable eng_die_h : int;
  mutable rect_bufs : Rect.t array array;
  mutable int_bufs : int array array;
}

let create () =
  {
    eng = None;
    eng_circuit = None;
    eng_die_w = 0;
    eng_die_h = 0;
    rect_bufs = Array.make 4 [||];
    int_bufs = Array.make 4 [||];
  }

let engine ?overlap_free t circuit ~die_w ~die_h rects =
  let eng =
    match t.eng with
    | Some eng
      when (match t.eng_circuit with Some c -> c == circuit | None -> false)
           && t.eng_die_w = die_w && t.eng_die_h = die_h ->
      eng
    | _ ->
      let eng = Mps_cost.Incremental.create circuit ~die_w ~die_h rects in
      t.eng <- Some eng;
      t.eng_circuit <- Some circuit;
      t.eng_die_w <- die_w;
      t.eng_die_h <- die_h;
      eng
  in
  Mps_cost.Incremental.reset ?overlap_free eng rects;
  eng

let[@inline never] grow bufs slot empty =
  Array.append bufs (Array.make (slot + 1 - Array.length bufs) empty)

let rect_buffer t ~slot n =
  if slot < 0 then invalid_arg "Arena.rect_buffer: negative slot";
  if slot >= Array.length t.rect_bufs then t.rect_bufs <- grow t.rect_bufs slot [||];
  let buf = t.rect_bufs.(slot) in
  if Array.length buf = n then buf
  else begin
    (* distinct records: the whole point is refilling them in place *)
    let buf = Array.init n (fun _ -> Rect.make ~x:0 ~y:0 ~w:1 ~h:1) in
    t.rect_bufs.(slot) <- buf;
    buf
  end

let int_buffer t ~slot n =
  if slot < 0 then invalid_arg "Arena.int_buffer: negative slot";
  if slot >= Array.length t.int_bufs then t.int_bufs <- grow t.int_bufs slot [||];
  let buf = t.int_bufs.(slot) in
  if Array.length buf = n then buf
  else begin
    let buf = Array.make n 0 in
    t.int_bufs.(slot) <- buf;
    buf
  end
