(** Implementation-agnostic BGP speaker interface.

    The systems DiCE targets are {e heterogeneous}: several independent
    implementations of the same open protocol coexist.  Everything
    above the wire (snapshots, clones, property checks, exploration)
    talks to a speaker through this record, never to a concrete
    implementation — mirroring how DiCE drives deployed routers through
    protocol messages rather than internal APIs.

    Two implementations ship with this repository: {!Router} (the
    BIRD-like reference) and {!Sparrow} (an independently structured
    implementation of the same RFCs). *)

type t = {
  sp_node : int;
  sp_impl : string;  (** implementation name, e.g. "bird-like" *)
  sp_config : unit -> Config.t;
  sp_set_config : Config.t -> unit;
  sp_rib : unit -> Rib.t;
      (** RIB-shaped view of current routing state.  Copies are allowed,
          but the verdict memo reuses a speaker's checks only while this
          returns the very same value, so an unchanged state should
          return the same copy. *)
  sp_bugs : unit -> Router.bugs;
  sp_set_bugs : Router.bugs -> unit;
  sp_start : unit -> unit;
  sp_established : unit -> Ipv4.t list;
  sp_process_raw : from_node:int -> string -> unit;
  sp_inject_update : from:Ipv4.t -> Msg.update -> unit;
  sp_stats : unit -> Netsim.Stats.t;
  sp_digest : unit -> Digest.t;
      (** A digest of everything the speaker reads to decide an event:
          configuration, bug flags, RIBs and session state.  Counters,
          caches and timer handles are left out (a live timer is an
          event in the engine queue).  Two moments of one speaker with
          equal digests behave alike from then on. *)
  sp_capture : unit -> capture;
}

and capture = {
  cap_node : int;
  cap_impl : string;
  cap_config : Config.t;
  cap_bugs : Router.bugs;
      (** the seeded-bug flags at capture time: a clone runs the code
          the captured node ran unless its spawner overrides them *)
  cap_rib : Rib.t;
      (** what a respawn's [sp_rib] returns before it handles anything:
          the live node's [sp_rib] at capture time *)
  cap_digest : unit -> Digest.t;
      (** a respawn's [sp_digest] under [cap_bugs], before it handles
          anything; computed on the first call and kept, safely across
          domains (a campaign job runs on a domain of its own) *)
  cap_respawn : net:string Netsim.Network.t -> bugs:Router.bugs -> t;
      (** Recreate this speaker (same implementation, same state) on an
          isolated network whose node ids match the original. *)
}

val loc_rib : t -> Rib.route Prefix_trie.t
val capture : t -> capture

val once : (unit -> 'a) -> unit -> 'a
(** [once f] calls [f] on its first call and returns that value from
    then on.  Domains that race on the first call may each run [f], but
    all of them get the value stored first. *)

val of_router : Router.t -> t
(** Wrap the reference implementation.  Respawned clones run with
    liveness timers disabled (shadow semantics).  [sp_capture] returns
    the speaker's last capture, physically, while the router's
    {!Router.state}, config and bug flags are still physically the ones
    it was taken at. *)
