(** Shadow clones: isolated re-instantiations of a consistent snapshot.

    A shadow owns a fresh event engine and network — nothing it does
    can reach the live system (Figure 2, steps 3-5: "explore input k
    over cloned snapshot k").  Cloning is cheap because checkpoints are
    persistent values; the expensive parts (fresh speaker shells,
    re-delivery of in-flight messages) are proportional to topology
    size, not RIB size.  Each node is respawned with its original
    implementation, so heterogeneous deployments clone
    heterogeneously. *)

type shadow = {
  sh_engine : Netsim.Engine.t;
  sh_net : string Netsim.Network.t;
  sh_speakers : (int * Bgp.Speaker.t) list;  (** sorted by node id *)
  sh_by_id : (int, Bgp.Speaker.t) Hashtbl.t;
      (** O(1) index behind {!speaker}; [speaker] sits in the explorer's
          per-input hot loop, where the assoc-list scan was O(nodes) *)
  sh_from : int;  (** snapshot id this shadow was cloned from *)
}

val spawn :
  ?bugs_of:(int -> Bgp.Router.bugs) ->
  ?deliver_in_flight:bool ->
  Cut.snapshot ->
  shadow
(** Rebuilds every checkpointed node with its captured configuration,
    state and bug flags on an isolated network (ideal links), then
    re-injects the snapshot's in-flight channel messages
    ([deliver_in_flight] defaults to [true]).  [bugs_of] overrides the
    captured bug flags per node. *)

val speaker : shadow -> int -> Bgp.Speaker.t
val run : shadow -> Netsim.Time.span -> unit
(** Advance the shadow's virtual time. *)

val run_to_quiescence : ?max_events:int -> shadow -> bool
(** Run until the shadow's queue drains ([true]) or the event budget is
    hit ([false]).  Shadow speakers have no liveness timers, so
    quiescence is reachable. *)

val loc_ribs : shadow -> (int * Bgp.Rib.route Bgp.Prefix.Map.t) list
(** Every speaker's current Loc-RIB, in [sh_speakers] order.  The maps
    are persistent values, so a list taken now still describes this
    moment after the shadow runs on; holding one costs pointers, not a
    copy. *)

val fingerprint_of_loc_ribs : (int * Bgp.Rib.route Bgp.Prefix.Map.t) list -> int
(** Full-content hash of a {!loc_ribs} sample: every route's prefix,
    peer and AS path. *)

val loc_rib_fingerprint : shadow -> int
(** [fingerprint_of_loc_ribs (loc_ribs sh)] — used by isolation and
    oscillation checks. *)
