type t = { w : Interval.t array; h : Interval.t array }

type axis =
  | Width of int
  | Height of int

let make ~w ~h =
  if Array.length w <> Array.length h then
    invalid_arg "Dimbox.make: array length mismatch";
  { w = Array.copy w; h = Array.copy h }

let of_dims_range ~lo ~hi =
  let n = Dims.n_blocks lo in
  if Dims.n_blocks hi <> n then invalid_arg "Dimbox.of_dims_range: size mismatch";
  {
    w = Array.init n (fun i -> Interval.make (Dims.width lo i) (Dims.width hi i));
    h = Array.init n (fun i -> Interval.make (Dims.height lo i) (Dims.height hi i));
  }

let n_blocks t = Array.length t.w

let w_interval t i = t.w.(i)
let h_interval t i = t.h.(i)

let axis_interval t = function
  | Width i -> t.w.(i)
  | Height i -> t.h.(i)

let with_axis t axis iv =
  match axis with
  | Width i ->
    let w = Array.copy t.w in
    w.(i) <- iv;
    { t with w }
  | Height i ->
    let h = Array.copy t.h in
    h.(i) <- iv;
    { t with h }

let flatten_into t ~lo ~hi ~base =
  for i = 0 to n_blocks t - 1 do
    lo.(base + (2 * i)) <- Interval.lo t.w.(i);
    hi.(base + (2 * i)) <- Interval.hi t.w.(i);
    lo.(base + (2 * i) + 1) <- Interval.lo t.h.(i);
    hi.(base + (2 * i) + 1) <- Interval.hi t.h.(i)
  done

let axes t =
  let n = n_blocks t in
  List.concat (List.init n (fun i -> [ Width i; Height i ]))

(* A [while] loop, not a local recursive function: without flambda the
   closure would allocate, and the query engine calls this per hit. *)
let contains t dims =
  let n = n_blocks t in
  Dims.n_blocks dims = n
  &&
  let i = ref 0 in
  while
    !i < n
    && Interval.contains t.w.(!i) (Dims.width dims !i)
    && Interval.contains t.h.(!i) (Dims.height dims !i)
  do
    incr i
  done;
  !i >= n

let contains_box ~outer ~inner =
  let n = n_blocks outer in
  n = n_blocks inner
  &&
  let rec loop i =
    i >= n
    || (Interval.contains_interval ~outer:outer.w.(i) ~inner:inner.w.(i)
        && Interval.contains_interval ~outer:outer.h.(i) ~inner:inner.h.(i)
        && loop (i + 1))
  in
  loop 0

let disjoint_axis a b =
  let n = n_blocks a in
  if n_blocks b <> n then invalid_arg "Dimbox.disjoint_axis: size mismatch";
  let rec loop i =
    if i >= n then None
    else if not (Interval.overlaps a.w.(i) b.w.(i)) then Some (Width i)
    else if not (Interval.overlaps a.h.(i) b.h.(i)) then Some (Height i)
    else loop (i + 1)
  in
  loop 0

let overlaps a b = Option.is_none (disjoint_axis a b)

let inter a b =
  let n = n_blocks a in
  if n_blocks b <> n then invalid_arg "Dimbox.inter: size mismatch";
  let exception Disjoint in
  let isect x y =
    match Interval.inter x y with
    | Some iv -> iv
    | None -> raise Disjoint
  in
  try
    Some
      {
        w = Array.init n (fun i -> isect a.w.(i) b.w.(i));
        h = Array.init n (fun i -> isect a.h.(i) b.h.(i));
      }
  with Disjoint -> None

let lower_corner t =
  Dims.make ~w:(Array.map Interval.lo t.w) ~h:(Array.map Interval.lo t.h)

let upper_corner t =
  Dims.make ~w:(Array.map Interval.hi t.w) ~h:(Array.map Interval.hi t.h)

let center t =
  Dims.make ~w:(Array.map Interval.midpoint t.w) ~h:(Array.map Interval.midpoint t.h)

let clamp t dims =
  let n = n_blocks t in
  Dims.make
    ~w:(Array.init n (fun i -> Interval.clamp t.w.(i) (Dims.width dims i)))
    ~h:(Array.init n (fun i -> Interval.clamp t.h.(i) (Dims.height dims i)))

let volume_fraction t ~bounds =
  let n = n_blocks t in
  if n_blocks bounds <> n then invalid_arg "Dimbox.volume_fraction: size mismatch";
  let acc = ref 1.0 in
  for i = 0 to n - 1 do
    acc := !acc *. Interval.fraction_of t.w.(i) ~of_:bounds.w.(i);
    acc := !acc *. Interval.fraction_of t.h.(i) ~of_:bounds.h.(i)
  done;
  !acc

(* Draw order is pinned: all heights first, then all widths, each
   ascending by block.  (The original implementation built the two
   arrays as labeled arguments of one [Dims.make] call, which OCaml
   evaluates right to left — checkpoints and regression hashes replay
   that order, so it is now explicit.) *)
let random_dims_into rng t ~w ~h =
  let n = n_blocks t in
  if Array.length w <> n || Array.length h <> n then
    invalid_arg "Dimbox.random_dims_into: bad buffer length";
  let draw iv = Mps_rng.Rng.int_in rng (Interval.lo iv) (Interval.hi iv) in
  for i = 0 to n - 1 do
    h.(i) <- draw t.h.(i)
  done;
  for i = 0 to n - 1 do
    w.(i) <- draw t.w.(i)
  done

let random_dims rng t =
  let n = n_blocks t in
  let w = Array.make n 1 and h = Array.make n 1 in
  random_dims_into rng t ~w ~h;
  (* fresh arrays, never aliased — safe to adopt without the copy *)
  Dims.unsafe_of_arrays ~w ~h

let equal a b =
  n_blocks a = n_blocks b
  && Array.for_all2 Interval.equal a.w b.w
  && Array.for_all2 Interval.equal a.h b.h

let pp fmt t =
  Format.fprintf fmt "@[<h>";
  for i = 0 to n_blocks t - 1 do
    Format.fprintf fmt "%s%a x %a" (if i > 0 then " " else "") Interval.pp t.w.(i)
      Interval.pp t.h.(i)
  done;
  Format.fprintf fmt "@]"
