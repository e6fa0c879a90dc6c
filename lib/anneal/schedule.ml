type t = { t0 : float; alpha : float; t_min : float }

let geometric ~t0 ~alpha ~t_min =
  if t0 <= 0.0 || alpha <= 0.0 || alpha >= 1.0 || t_min <= 0.0 then
    invalid_arg "Schedule.geometric: need t0 > 0, 0 < alpha < 1, t_min > 0";
  { t0; alpha; t_min }

let temperature { t0; alpha; t_min } ~step =
  if step < 0 then invalid_arg "Schedule.temperature: negative step";
  Float.max t_min (t0 *. (alpha ** float_of_int step))
