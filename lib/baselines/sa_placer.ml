open Mps_placement

let place ?(iterations = Coord_opt.default_config.Coord_opt.iterations) ~rng circuit ~die_w
    ~die_h dims =
  Coord_opt.optimize
    ~config:{ Coord_opt.default_config with Coord_opt.iterations }
    ~rng circuit ~die_w ~die_h dims
