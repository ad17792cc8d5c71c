(** Shadow clones: isolated re-instantiations of a consistent snapshot.

    A shadow owns a fresh event engine and network — nothing it does
    can reach the live system (Figure 2, steps 3-5: "explore input k
    over cloned snapshot k").  A shadow costs what it touches, not what
    the snapshot holds.  Its network is made over the snapshot's
    topology, the one the live network was made over, and makes a
    channel's record on the channel's first send and a node's on its
    first delivery.  Its
    speakers stay checkpoints until touched: an untouched node answers
    its config, RIB, bug flags and digest from its capture, and is
    respawned — with its original implementation, so heterogeneous
    deployments clone heterogeneously — when a message reaches it,
    {!speaker} asks for it, or anything would change its state.  So a
    shadow respawns the speakers its messages reach and the one it is
    asked for, whatever the size of the topology. *)

type shadow = {
  sh_engine : Netsim.Engine.t;
  sh_net : string Netsim.Network.t;
  sh_speakers : (int * Bgp.Speaker.t) list;
      (** sorted by node id; an untouched entry stands for its
          checkpoint, as above *)
  sh_touch : int -> Bgp.Speaker.t;  (** behind {!speaker} *)
  sh_touched : unit -> (Checkpoint.t * Bgp.Speaker.t) list;
      (** the respawned speakers, ascending by node id, each with the
          checkpoint it was respawned from; every other entry of
          [sh_speakers] is still its checkpoint *)
  sh_from : int;  (** snapshot id this shadow was cloned from *)
}

val spawn :
  ?bugs_of:(int -> Bgp.Router.bugs) ->
  ?deliver_in_flight:bool ->
  Cut.snapshot ->
  shadow
(** A shadow of every checkpointed node with its captured configuration,
    state and bug flags, on an isolated network (ideal links), with the
    snapshot's in-flight channel messages re-sent in channel order
    ([deliver_in_flight] defaults to [true]).  [bugs_of] overrides the
    captured bug flags per node; a node whose override differs from its
    captured flags is respawned here.  A node of the snapshot's
    topology with no checkpoint (a partial cut) is a black hole. *)

val speaker : shadow -> int -> Bgp.Speaker.t
(** Node [id]'s speaker, respawned from its checkpoint if untouched.
    @raise Invalid_argument if [id] has no checkpoint. *)

val loc_rib_fingerprint : shadow -> int
(** Full-content hash of every speaker's Loc-RIB (each route's prefix,
    peer and AS path) — used by isolation and oscillation checks.  It
    is a sum of 63-bit strong hashes, one per route, so two states
    that render alike hash alike and two that do not collide with
    probability about 2^-63. *)

val fingerprint_since_capture : shadow -> int
(** [loc_rib_fingerprint sh] less its value when [sh] was spawned,
    computed from the touched speakers alone: each adds the hashes of
    the Loc-RIB entries it changed since its checkpoint
    ({!Bgp.Prefix_trie.fold_diff}), an untouched one nothing.  What
    {!settle} samples. *)

val digest : shadow -> Digest.t option
(** The full state: {!Netsim.Network.digest} of the shadow's network
    and every speaker's [sp_digest], in [sh_speakers] order.  Absolute
    time and event counts are not in it, so two moments of one shadow
    with equal digests behave alike from then on.  [None] when the
    network cannot be described (a timer or a cancelled slot is
    queued). *)

type settled =
  | Quiesced  (** the event queue drained *)
  | Oscillating  (** the budget state, reached after a Loc-RIB revisit *)
  | Diverging  (** the budget state, with no revisit seen *)

val settle : ?budget:int -> shadow -> settled
(** Steps the shadow until it quiesces or [budget] events (default
    200,000) have been stepped, sampling the global Loc-RIB state every
    100 events.  A revisit (A -> B -> A: changed since the last sample,
    seen before) makes a budget run [Oscillating]; without one it is
    [Diverging].  A sample is {!fingerprint_since_capture}: it differs
    from {!loc_rib_fingerprint} by a constant over one shadow, so it
    revisits exactly when that does, and it costs what the shadow
    changed, not the network's size.  A revisit needs three samples,
    so the first two are held as the touched speakers' Loc-RIBs and
    hashed only once a third is taken; a shadow that quiesces before
    its third sample hashes nothing.

    From the first revisit on, the {!digest} is also taken each time the
    clock has moved on since the last one (at most [budget / 100]
    times).  When a digest recurs, the run is periodic from the first
    sighting, so it steps only as far into the next period as the budget
    would have reached, and stops there: the verdict, the end state (up
    to the clock and the counters) and every route evaluation on the way
    are those of the run to the budget. *)

val run_to_quiescence : ?max_events:int -> shadow -> bool
(** [settle ~budget:max_events sh = Quiesced] (default budget 100,000).
    Shadow speakers have no liveness timers, so quiescence is
    reachable. *)
