(** Shadow clones: isolated re-instantiations of a consistent snapshot.

    A clone owns a fresh event engine and network — nothing it does
    can reach the live system (Figure 2, steps 3-5: "explore input k
    over cloned snapshot k").  A clone costs what it touches, not what
    the snapshot holds.  Its network is made over the snapshot's
    topology, the one the live network was made over, and makes a
    node's record, with the records of the channels it sends on, on
    first use.  Its speakers stay checkpoints until touched: an
    untouched node {e is} its capture (config, RIB, bug flags and
    digest), and is respawned — with its original implementation, so
    heterogeneous deployments clone heterogeneously — when a message
    reaches it or {!touch} asks for it.  So making a clone allocates
    no record per checkpoint or per channel, re-sends the snapshot's
    in-flight messages, and respawns nothing; a replay pays for the
    speakers its messages reach and the one it is asked for, whatever
    the size of the topology.

    The explorer works on clones.  A {!shadow} is a clone with a
    {!Bgp.Speaker.t} standing for every checkpointed node, for callers
    that read every speaker through that interface. *)

type clone = {
  cl_snapshot : Cut.snapshot;
  cl_engine : Netsim.Engine.t;
  cl_net : string Netsim.Network.t;
  mutable cl_touched : (int * Bgp.Speaker.t) list;
      (** the respawned speakers with their node numbers in the
          topology, latest first *)
}
(** Made by {!clone}; read its fields, and leave [cl_touched] to
    {!touch}. *)

val clone : ?deliver_in_flight:bool -> Cut.snapshot -> clone
(** A clone of every checkpointed node with its captured configuration,
    state and bug flags, on an isolated network (ideal links), with the
    snapshot's in-flight channel messages re-sent in channel order
    ([deliver_in_flight] defaults to [true]).  A node of the snapshot's
    topology with no checkpoint (a partial cut) is a black hole. *)

val touch : clone -> int -> Bgp.Speaker.t
(** Node [id]'s speaker, respawned from its checkpoint if untouched.
    @raise Invalid_argument if [id] has no checkpoint. *)

val touched : clone -> (Checkpoint.t * Bgp.Speaker.t) list
(** The respawned speakers, ascending by node id, each with the
    checkpoint it was respawned from; every other checkpointed node is
    still its checkpoint. *)

val fold : (Checkpoint.t -> Bgp.Speaker.t option -> 'a -> 'a) -> clone -> 'a -> 'a
(** Over every checkpointed node, ascending by id: its checkpoint and,
    if touched, its speaker. *)

type shadow = {
  sh_clone : clone;
  sh_engine : Netsim.Engine.t;  (** the clone's *)
  sh_speakers : (int * Bgp.Speaker.t) list;
      (** every checkpointed node, sorted by id; an untouched entry
          answers its config, RIB, bug flags and digest from its
          checkpoint, and touches the node for anything else *)
}

val spawn :
  ?bugs_of:(int -> Bgp.Router.bugs) ->
  ?deliver_in_flight:bool ->
  Cut.snapshot ->
  shadow
(** {!clone} with its speaker list.  [bugs_of] overrides the captured
    bug flags per node; a node whose override differs from its
    captured flags is respawned here. *)

val speaker : shadow -> int -> Bgp.Speaker.t
(** [touch sh.sh_clone]. *)

val loc_rib_fingerprint : shadow -> int
(** Full-content hash of every speaker's Loc-RIB (each route's prefix,
    peer and AS path) — used by isolation and oscillation checks.  It
    is a sum of 63-bit strong hashes, one per route, so two states
    that render alike hash alike and two that do not collide with
    probability about 2^-63. *)

val fingerprint_since_capture : clone -> int
(** {!loc_rib_fingerprint} of the clone's nodes less its value when the
    clone was made, computed from the touched speakers alone: each adds the hashes of
    the Loc-RIB entries it changed since its checkpoint
    ({!Bgp.Prefix_trie.fold_diff}), an untouched one nothing.  What
    {!settle} samples. *)

val digest : clone -> Digest.t option
(** The full state: {!Netsim.Network.digest} of the clone's network
    and every checkpointed node's digest, in node order: a touched
    speaker's [sp_digest], an untouched one's [cap_digest].  Absolute
    time and event counts are not in it, so two moments of one clone
    with equal digests behave alike from then on.  [None] when the
    network cannot be described (a timer or a cancelled slot is
    queued). *)

type settled =
  | Quiesced  (** the event queue drained *)
  | Oscillating  (** the budget state, reached after a Loc-RIB revisit *)
  | Diverging  (** the budget state, with no revisit seen *)

val settle : ?budget:int -> clone -> settled
(** Steps the clone until it quiesces or [budget] events (default
    200,000) have been stepped, sampling the global Loc-RIB state every
    100 events.  A revisit (A -> B -> A: changed since the last sample,
    seen before) makes a budget run [Oscillating]; without one it is
    [Diverging].  A sample is {!fingerprint_since_capture}: it differs
    from {!loc_rib_fingerprint} by a constant over one clone, so it
    revisits exactly when that does, and it costs what the clone
    changed, not the network's size.  A revisit needs three samples,
    so the first two are held as the touched speakers' Loc-RIBs and
    hashed only once a third is taken; a clone that quiesces before
    its third sample hashes nothing.

    From the first revisit on, the {!digest} is also taken each time the
    clock has moved on since the last one (at most [budget / 100]
    times).  When a digest recurs, the run is periodic from the first
    sighting, so it steps only as far into the next period as the budget
    would have reached, and stops there: the verdict, the end state (up
    to the clock and the counters) and every route evaluation on the way
    are those of the run to the budget. *)

val run_to_quiescence : ?max_events:int -> clone -> bool
(** [settle ~budget:max_events c = Quiesced] (default budget 100,000).
    Shadow speakers have no liveness timers, so quiescence is
    reachable. *)
