(** Clause-coverage registry for policy evaluation.

    A coverage {e point} is one observable event of the policy
    interpreter on one router: "match clause [idx] of entry [seq] in
    map [map] on router [node] evaluated to [outcome]", "entry [seq]
    decided a route", "set clause [idx] was applied", or "the map fell
    through to the default deny".  Points have stable textual ids and
    are backed by {!Telemetry.Metrics} counters
    ([confuzz.cov.<id>]), so hit counts survive into metric snapshots
    and telemetry reports.

    The {e universe} is seeded from the deployed configurations
    ({!register_config} walks every route map referenced by a neighbor
    — unreferenced maps are dead text, see {!Config.lint}) and grows
    when evaluation reaches points outside it (mutated configs).
    Coverage = registered points with a nonzero hit count.

    Enabling installs the process-global {!Policy.set_cov_observer};
    while disabled, policy evaluation takes the uninstrumented path and
    is bit-identical to a build without this module. *)

type point = { pt_site : Policy.cov_site; pt_seq : int; pt_what : Policy.cov_point }
(** The interpreter's own vocabulary: the site and point
    {!Policy.apply} reports, with the entry's sequence number ([-1] for
    {!Policy.Cov_fallthrough}). *)

val id_of : point -> string
(** Stable id, e.g. ["n4/FROM-PEER/e10/m0=T"]. *)

val enable : unit -> unit
(** Install the observer.  Idempotent. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Clear the universe and zero all hit counters — a fresh campaign.
    Does not change enablement. *)

val register_config : node:int -> Config.t -> unit
(** Register every coverage point of the configuration's referenced
    route maps (both outcomes of every match clause, the action and
    set points of every entry, and one fallthrough point per map). *)

val universe_size : unit -> int
val covered : unit -> int
(** Number of registered points with at least one hit. *)

val hits : point -> int
val uncovered : unit -> point list
(** Registered points never hit, sorted. *)

val site : node:int -> string option -> Policy.cov_site option
(** The [?site] argument for a policy evaluation: [Some] only when
    coverage is enabled and the neighbor actually names a map (an
    implicit accept-all has no clauses to cover). *)
