(** Sparrow: a second, independent BGP speaker implementation.

    Interoperates with {!Router} purely over RFC 4271 wire messages —
    the "multiple implementations of open interfaces" that make the
    paper's target systems heterogeneous.  Differences from the
    reference implementation (all within spec latitude, or documented
    leniencies):

    - reactive session bring-up (greets on start, answers OPEN with
      OPEN + KEEPALIVE) instead of the full RFC state machine;
    - tolerates early UPDATEs instead of sending an FSM-error
      NOTIFICATION;
    - radix tries and per-peer association lists instead of persistent
      maps; its own decision-process implementation;
    - one UPDATE per prefix on the wire (no attribute batching);
    - supports only the [crash_community], [skip_loop_check] and
      [fragile_decode] seeded bugs ({!Router.bugs} flags it does not
      model are ignored). *)

type t

val create : net:string Netsim.Network.t -> node:int -> Config.t -> t
(** A live speaker: liveness timers on, no seeded bugs. *)

val rib_view : t -> Rib.t
(** The Rib-shaped view of the current state.  It is kept in step with
    the tables: each table write makes the same write to it, and a
    write that changes nothing leaves it physically the same.  So it
    shares every binding that did not change, and an unchanged speaker
    returns the very same value.  A capture carries it, so a respawn
    starts from the live node's view. *)

val build_view : t -> Rib.t
(** The view built from scratch, every table converted afresh: what
    {!rib_view} is rebuilt to after a config change, and the reference
    it is tested against. *)

val inject_update : t -> from:Ipv4.t -> Msg.update -> unit

val speaker : t -> Speaker.t
(** The speaker interface.  [sp_set_config] reselects every network of
    the old and the new config, so a dropped network is withdrawn.  A
    neighbor the new config removes is sent Cease and its session taken
    down, so the routes learned from it are withdrawn; adding a neighbor
    starts no session.  Each remaining session keeps the neighbor config it was created with and its
    held routes are not run through the maps again: a changed import or
    export map applies to routes received or selected from then on.
    Neither implementation keeps routes as received, before import:
    {!Router.set_config} runs the stored, already imported routes
    through the import maps again. *)
