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
(** The Rib-shaped view of the current state.  It is rebuilt only after
    a table changed: until then every call, on this speaker or on a
    clone of the same captured state, returns the same value.  A
    rebuild under an unchanged config and peer list patches the
    previous view, so it shares every binding that did not change. *)

val build_view : t -> Rib.t
(** The view built from scratch, every table converted afresh.
    {!rib_view} returns a view with the same bindings, built by patching
    an earlier view where the config and peers allow it. *)

val inject_update : t -> from:Ipv4.t -> Msg.update -> unit

val speaker : t -> Speaker.t
