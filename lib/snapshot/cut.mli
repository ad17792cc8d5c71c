(** Consistent global snapshots via the Chandy–Lamport marker
    algorithm, run over the live simulation's FIFO channels.

    On initiation the initiator checkpoints itself and sends the cut's
    one marker envelope on each out-channel by number; every node does
    the same on its first marker, and records each incoming channel
    until that channel's marker arrives.  The network hands both hooks
    the delivering channel's number, so no marker costs a search.  The
    result is a causally consistent cut including in-flight messages —
    the "consistent shadow snapshot of local node checkpoints" of the
    paper's Figure 2 (step 2).

    {b Deadlines.} On a churning substrate a marker can be lost (dead
    node, down link) and a cut would otherwise stall forever.
    {!initiate} therefore accepts a [?deadline]: when it fires before
    the cut closes, the cut {e aborts} into a {!result.Partial} carrying
    everything gathered so far plus the list of channels whose marker
    never arrived.  A network's topology is fixed when the network is
    made, so every cut closes the channel set it started with; churn
    takes nodes and links down, never out.  Every initiated cut settles
    exactly once — completed or aborted, it leaves the active table. *)

type channel_record = {
  ch_from : int;
  ch_to : int;
  ch_messages : string list;  (** in arrival order *)
}

type snapshot = {
  snap_id : int;
  initiator : int;
  started_at : Netsim.Time.t;
  completed_at : Netsim.Time.t;
  checkpoints : (int * Checkpoint.t) list;  (** sorted by node *)
  by_number : Checkpoint.t option array;
      (** the same checkpoints by [topology] node number, [None] for a
          node the cut did not checkpoint; read it, never write it *)
  channels : channel_record list;
      (** a record for each channel that recorded messages, in
          channel-number order, which ascends; every other channel of
          [topology] recorded nothing *)
  topology : Netsim.Network.topology;
      (** the network's topology, shared by every shadow spawned from
          the snapshot; a node the cut did not checkpoint is a black
          hole in them *)
  control_messages : int;  (** markers sent — the overhead metric *)
}

type result =
  | Complete of snapshot
  | Partial of snapshot * (int * int) list
      (** the cut aborted at its deadline; the second component names
          the channels whose marker never arrived *)

val snapshot_of : result -> snapshot
val stalled_of : result -> (int * int) list
(** [\[\]] for [Complete]. *)

val in_flight_total : snapshot -> int

type t
(** The snapshot controller: owns the network's control handler and
    delivery tap.  Create exactly one per network. *)

val create : speakers:(int -> Bgp.Speaker.t) -> string Netsim.Network.t -> t

val initiate :
  ?deadline:Netsim.Time.span -> t -> initiator:int -> on_result:(result -> unit) -> int
(** Starts the marker algorithm from [initiator]; returns the snapshot
    id.  [on_result] fires (via the event engine) exactly once: with
    [Complete] once every channel has been closed by its marker, or with
    [Partial] when [deadline] elapses first.  Without a [deadline] a cut
    that cannot complete stays active indefinitely.  Multiple snapshots
    may be in flight concurrently. *)

val active : t -> int
(** Number of snapshots still collecting. *)

val completed : t -> int
(** How many cuts settled [Complete].  Settled cuts are not kept: each
    one reaches its [on_result] and nothing else, so a long online run
    does not hold every snapshot it ever took. *)

val aborted : t -> int
(** How many cuts settled [Partial]. *)
