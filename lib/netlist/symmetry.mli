(** Symmetry constraints.

    Analog performance depends on matched devices seeing matched
    parasitics, so analog placers (KOAN/ANAGRAM, LAYLA — the paper's
    baseline class) support symmetric placement: pairs mirrored about a
    common vertical axis and self-symmetric blocks centred on it.  Here
    symmetry is a soft constraint scored by
    {!Mps_cost.Cost.symmetry_penalty}. *)

type group =
  | Pair of { left : int; right : int }
      (** Two blocks mirrored about the common axis, at equal height. *)
  | Self of int  (** One block centred on the axis. *)

val members : group -> int list

val validate : n_blocks:int -> group list -> unit
(** @raise Invalid_argument when an index is out of range, a pair is
    degenerate, or a block appears in more than one group. *)
