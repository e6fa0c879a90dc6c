(** The geometric cooling schedule for simulated annealing. *)

type t = private { t0 : float; alpha : float; t_min : float }
(** [t(k) = max t_min (t0 * alpha^k)]; [t0 = t_min] holds the
    temperature constant. *)

val geometric : t0:float -> alpha:float -> t_min:float -> t
(** @raise Invalid_argument unless [t0 > 0], [0 < alpha < 1] and
    [t_min > 0]. *)

val temperature : t -> step:int -> float
(** Temperature at iteration [step >= 0]; always [> 0]. *)
