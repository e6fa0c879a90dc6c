type t = { w : int array; h : int array }

let validate w h =
  if Array.length w <> Array.length h then
    invalid_arg "Dims.make: width/height arrays differ in length";
  Array.iter (fun v -> if v <= 0 then invalid_arg "Dims.make: non-positive width") w;
  Array.iter (fun v -> if v <= 0 then invalid_arg "Dims.make: non-positive height") h

let make ~w ~h =
  validate w h;
  { w = Array.copy w; h = Array.copy h }

let unsafe_of_arrays ~w ~h = { w; h }
let unsafe_widths t = t.w
let unsafe_heights t = t.h

let of_pairs pairs =
  let w = Array.map fst pairs and h = Array.map snd pairs in
  validate w h;
  { w; h }

let n_blocks t = Array.length t.w

let width t i = t.w.(i)
let height t i = t.h.(i)

let set_width t i w =
  if w <= 0 then invalid_arg "Dims.set_width: non-positive";
  let w' = Array.copy t.w in
  w'.(i) <- w;
  { t with w = w' }

let set_height t i h =
  if h <= 0 then invalid_arg "Dims.set_height: non-positive";
  let h' = Array.copy t.h in
  h'.(i) <- h;
  { t with h = h' }

let total_area t =
  let acc = ref 0 in
  for i = 0 to Array.length t.w - 1 do
    acc := !acc + (t.w.(i) * t.h.(i))
  done;
  !acc

let equal a b = a.w = b.w && a.h = b.h
