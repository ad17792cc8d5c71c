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

val loc_rib_fingerprint : shadow -> int
(** Full-content hash of every speaker's Loc-RIB (each route's prefix,
    peer and AS path) — used by isolation and oscillation checks. *)

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
    [Diverging].  A revisit needs three samples, so the first two are
    kept as Loc-RIB map pointers and fingerprinted only once a third is
    taken; a shadow that quiesces before its third sample computes no
    fingerprint at all.

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
