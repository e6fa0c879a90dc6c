(** Typed invariant auditor for compiled/loaded structures.

    A multi-placement structure is generated once and then served inside
    a synthesis loop for millions of queries; a single corrupted or
    invariant-violating stored placement silently poisons every sizing
    run that lands in its hyper-box.  The auditor re-proves, on any
    {!Structure.t} regardless of where it came from, the properties the
    generator established by construction:

    - pairwise disjointness of the stored validity boxes (paper eq. 5);
    - per placement: [box] contained in [expansion] (unless
      template-like), [best_dims] inside [box], boxes inside the
      designer dimension space;
    - legality of each placement's floorplan at its box corners plus
      seeded samples — no block overlap, nothing outside the die,
      symmetry scored through {!Mps_cost.Cost.evaluate};
    - cost-field re-verification: the recorded [best_cost] matches the
      cost function re-evaluated at [best_dims] within tolerance, and
      [avg_cost >= best_cost];
    - the backup template is legal at the circuit's minimum dimensions
      and over its expansion box, and every template-like piece of its
      territory carries its placement (["template-piece-not-backup"],
      Fatal);
    - seeded whole-space query samples, answered through the compiled
      {!Structure.Engine} (the path production queries take) and
      cross-checked against the linear reference oracle: every answer
      instantiates overlap-free;
    - a seeded 256-step sizing walk (unit steps from a stored best
      vector, a jump every 64 steps) through the same engine session,
      whose every floorplan must equal the oracle's rect for rect
      (["engine-floorplan-mismatch"], Fatal) — the only probes that
      reach the session's step-to-step paths.

    Findings carry a machine-readable code and a severity; the report
    serializes to JSON for CI artifacts ({!to_json}). *)

(** How bad a finding is.  [Fatal] means the structure can answer a
    query with an illegal or wrong placement (quarantine it); [Degraded]
    means answers stay legal but quality metadata or territory
    accounting is wrong (repairable in place); [Info] is advisory. *)
type severity = Info | Degraded | Fatal

(** What a finding is about. *)
type subject =
  | Structure_wide
  | Placement of int  (** Index into {!Structure.placements}. *)
  | Backup

type finding = {
  severity : severity;
  subject : subject;
  code : string;  (** Machine-readable, e.g. ["box-overlap"]. *)
  detail : string;  (** Human-readable specifics. *)
}

type report = {
  circuit_name : string;
  placements : int;
  explored : int;
  samples_per_box : int;
  query_samples : int;
  findings : finding list;  (** Worst first. *)
}

val default_seed : int
(** [7], {!run}'s default [seed]. *)

val default_samples_per_box : int
(** [12], {!run}'s default [samples_per_box]. *)

val run :
  ?pool:Mps_parallel.Pool.t -> ?samples_per_box:int -> ?seed:int -> Structure.t -> report
(** Audit a structure.  [samples_per_box] (default
    {!default_samples_per_box}) seeded legality samples per stored box,
    64 whole-space query probes, [seed]
    (default {!default_seed}) drives both; the cost re-verification
    re-evaluates {!Mps_cost.Cost.total} with a relative tolerance of
    1e-6.  Never raises: a check that
    raises on placement [i] or the backup becomes a [Fatal]
    ["audit-exception"] finding on that subject, as a query probe that
    raises becomes a ["query-exception"].

    Every audited subject draws from its own {!Mps_rng.Rng.split}
    stream of [seed], so passing [pool] fans the per-placement checks
    out across domains and returns the {e identical} report a
    sequential audit produces. *)

val clean : report -> bool
(** No [Fatal] and no [Degraded] finding ([Info] findings allowed). *)

val worst : report -> severity option
(** Highest severity present, [None] on a finding-free report. *)

val count : severity -> report -> int

val to_string : report -> string
(** Multi-line human-readable report. *)

val to_json : report -> string
(** Machine-readable report (stable schema, used as a CI artifact). *)
