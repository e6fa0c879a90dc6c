(** Procedural module generators.

    This is the substitute for the BALLISTIC / MSL layout generators the
    paper relies on (§1, §2.1): for each device it enumerates the
    *realizable* block dimensions — one per folding choice — and supplies
    the designer min/max dimension bounds the multi-placement structure
    is generated against.

    A MOS of total gate width [W] folded into [nf] fingers occupies
    roughly [nf × finger_pitch] horizontally and [W/nf + overhead]
    vertically, so different foldings trade width for height at constant
    active area; capacitors and resistors offer analogous aspect-ratio
    menus.  This variety is exactly what makes a single fixed template
    sub-optimal and a multi-placement structure worthwhile. *)

open Mps_geometry

val realizations : Process.t -> Device.t -> (int * int) list
(** All realizable [(width, height)] grid dimensions for the device,
    one per folding / aspect choice, sorted by increasing width, without
    duplicates.  The list is never empty. *)

val realize : Process.t -> Device.t -> aspect_hint:float -> int * int
(** The realization whose aspect ratio [w/h] is closest (in log space)
    to [aspect_hint].  @raise Invalid_argument if [aspect_hint <= 0]. *)

val bounds : Process.t -> Device.t -> Interval.t * Interval.t
(** [(w_bounds, h_bounds)]: the designer dimension bounds spanned by the
    realizations of this device. *)

val block_of_device :
  Process.t -> id:int -> name:string -> Device.t -> Mps_netlist.Block.t
(** Block whose dimension bounds cover every realization of the device. *)

val dims_of_devices :
  Process.t -> Device.t array -> aspect_hints:float array -> Dims.t
(** Realize one device per block with per-block aspect hints — the
    "translate the proposed device sizes into widths and heights of the
    modules" step of the paper's synthesis loop.
    @raise Invalid_argument when array lengths differ. *)
