(** Message-passing network over the event engine.

    Nodes are integers; channels are directed and FIFO, and — on a
    healthy substrate — reliable.  A network is made over a
    {!topology}, and its nodes and channels never change after.  The
    network is polymorphic in the application message type.

    Two hooks exist for the snapshot subsystem:
    - control messages ([Marker]) travel on the same FIFO channels as
      data but are delivered to the control handler instead of the node;
    - a delivery tap observes every data message just before it reaches
      its destination handler (used to record in-flight messages).

    {b Churn.} Deployed systems are not always healthy: nodes and links
    can be taken down and restored at runtime ({!set_node_down},
    {!set_link_down}, {!partition}).  A down node neither receives nor
    sends — deliveries to it are dropped and anything its (still
    firing) timers try to transmit is silenced.  A down link either
    drops traffic or holds it back for redelivery on recovery,
    according to its {!link_policy}.  Dropped messages are counted in
    {!messages_dropped}.  See {!Churn} for declarative failure
    schedules driven by engine timers. *)

type control = Marker of { snapshot : int; initiator : int }

type link_policy =
  | Drop_while_down  (** traffic on a down link is lost (default) *)
  | Queue_while_down
      (** traffic is held back and redelivered, in order, when the link
          comes back up *)

(** What happens when a destination handler raises during delivery. *)
type crash_policy =
  | Propagate
      (** the exception escapes through the engine to the caller
          (default — a handler bug aborts the simulation run) *)
  | Absorb of { restart_after : Time.span option }
      (** the exception is caught: the crash is recorded (see
          {!crashes}), the node is taken down as if it had churned, and
          — when [restart_after] is set — brought back up that much
          later.  [Stack_overflow] and [Out_of_memory] always
          propagate. *)

(** One absorbed handler death. *)
type crash = {
  cr_node : int;  (** the node whose handler raised *)
  cr_src : int;  (** sender of the fatal message *)
  cr_at : Time.t;
  cr_exn : string;  (** [Printexc.to_string] of the exception *)
}

type 'msg t

type topology = private {
  ids : int array;  (** node ids, ascending; a node's number is its index *)
  out_start : int array;
      (** node [i]'s out-channels are numbered [out_start.(i)] to
          [out_start.(i + 1) - 1]; one entry per node, plus one *)
  chan_src : int array;  (** channel number -> source node number *)
  chan_dst : int array;  (** channel number -> destination node number *)
}
(** A node and channel set, fixed before any network is made over it.
    Channels are numbered densely in ascending (source, destination)
    order.  It is immutable: the live network and every shadow of it
    are made over one. *)

val make_topology : nodes:int list -> channels:(int * int) list -> topology
(** @raise Invalid_argument on a node listed twice, a channel to or
    from an unlisted node, or a channel listed twice. *)

val node_number : topology -> int -> int
(** The number of node [id], or [-1] when it is not a node. *)

val channel_number : topology -> int -> int -> int
(** The number of channel [a -> b], or [-1] when there is none. *)

val channel_ends : topology -> int -> int * int
(** Channel [c]'s source and destination ids. *)

val create :
  ?label:string ->
  ?links:(unit -> (int * int * Link.t) list) ->
  Engine.t ->
  topology ->
  (int -> src:int -> 'msg -> unit) ->
  'msg t
(** [create eng topology first] is a network whose nodes and channels
    are [topology]'s.  It splits its generator from [eng]'s, then calls
    [links] (default: none) once, so [links] may split the next one:
    each listed channel's record, and its source node's, is made now,
    with that link model and a generator split from the network's, in
    list order.  Every other
    record is made on first use: a node's with handler [first id] until
    {!set_handler}, and a channel's with {!Link.ideal}.  A channel's
    record lives in its source node's, so a network allocates nothing
    per channel until the channel's source sends or a query names it.
    Both kinds answer every query, {!digest} included, alike.
    @raise Invalid_argument if [links] names a channel that is not in
    [topology], or one twice.

    [label] opts this network into the global telemetry registry:
    counters [net.<label>.sent/delivered/dropped/node_downs/link_downs]
    and downtime histograms [net.<label>.node_downtime_us] /
    [net.<label>.link_downtime_us], and its events ({!emit_lazy}:
    send, deliver, drop, churn, crash, and the speakers' own) reach
    the telemetry sink.  Leave it unset for throwaway networks (shadow
    replays) so they do not pollute the live run's accounting or
    timeline. *)

val topology : 'msg t -> topology

val engine : 'msg t -> Engine.t

val emit_lazy : 'msg t -> node:int -> kind:string -> (unit -> string) -> unit
(** Record a [trace] event at the current simulated time through
    {!Telemetry.trace_event}.  Only a labeled network emits, and only
    while {!Telemetry.enabled}; otherwise the detail thunk never runs,
    so call sites pay nothing for events nobody reads. *)

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Replace an existing node's message handler. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** @raise Invalid_argument if the channel does not exist. *)

val send_control : 'msg t -> src:int -> dst:int -> control -> unit

val set_control_handler : 'msg t -> (self:int -> src:int -> control -> unit) -> unit
val set_delivery_tap : 'msg t -> (dst:int -> src:int -> 'msg -> unit) option -> unit

val set_transform : 'msg t -> (src:int -> dst:int -> 'msg -> 'msg list) option -> unit
(** Install (or clear) a wire transform applied by {!send} before a
    data message enters the channel: the message is replaced by the
    returned list — [[]] drops it, two elements duplicate it, and a
    mutated singleton corrupts it.  Control markers are never
    transformed.  See {!Mangler} for a declarative, deterministically
    seeded fault-injection transform. *)

val set_crash_policy : 'msg t -> crash_policy -> unit
(** Default {!Propagate}. *)

val crashes : 'msg t -> crash list
(** Handler deaths absorbed so far, oldest first. *)

(** {1 Failure injection} *)

val set_node_down : 'msg t -> int -> unit
(** Crash a node: deliveries to it are dropped (data {e and} control
    markers), and nothing it transmits reaches the wire.  Idempotent.
    @raise Invalid_argument on an unknown node. *)

val set_node_up : 'msg t -> int -> unit
(** Restore a crashed node.  Sessions re-establish through the
    application layer's own timers; the network does not replay
    anything dropped while the node was down. *)

val node_is_up : 'msg t -> int -> bool

val set_link_down : ?policy:link_policy -> 'msg t -> int -> int -> unit
(** Take the directed channel [a -> b] down.  [policy] (default
    [Drop_while_down]) governs both new transmissions and messages
    already in flight when they reach their delivery instant.
    @raise Invalid_argument on an unknown channel. *)

val set_link_up : 'msg t -> int -> int -> unit
(** Restore a link; under [Queue_while_down] the held-back messages are
    redelivered in their original order. *)

val link_is_up : 'msg t -> int -> int -> bool

val partition : 'msg t -> int list -> int list -> unit
(** [partition t xs ys] takes down every channel (in both directions)
    between a node of [xs] and a node of [ys].  Pairs with no channel
    are skipped. *)

val heal : 'msg t -> unit
(** Bring every down link (not node) back up, in channel order. *)

(** {1 Introspection} *)

val has_node : 'msg t -> int -> bool

val neighbors_out : 'msg t -> int -> int list
(** Ascending; costs the node's degree. *)

val neighbors_in : 'msg t -> int -> int list
(** Ascending; costs the channel count. *)

val channels : 'msg t -> (int * int) list
(** Ascending, in channel-number order. *)

val digest : string t -> Digest.t option
(** A digest of everything that decides what the network does next,
    for telling whether a run has come back to an earlier moment: every
    in-flight envelope in delivery order with its arrival time relative
    to now, each channel's up state, link policy, held-back envelopes
    and FIFO floor (relative, and only while it lies ahead), each node's
    up state, and the crash policy.  The counters ([messages_sent] and
    the like), the crash log, the down-since stamps and the telemetry
    metrics are left out: nothing reads them to decide an event.

    [None] when the network cannot be described that way: the engine
    queue holds something other than this network's deliveries (a
    timer, a cancelled slot), a tap, transform or control handler is
    installed, or some link draws jitter or loss from its generator.
    Node handlers are taken to be the speakers', which describe
    themselves. *)

val messages_sent : 'msg t -> int
(** Data messages ever submitted to [send]. *)

val messages_delivered : 'msg t -> int
val in_flight : 'msg t -> int

val messages_dropped : 'msg t -> int
(** Data and control messages lost to down nodes or down links. *)
