(** Message-passing network over the event engine.

    Nodes are integers; channels are directed and FIFO, and — on a
    healthy substrate — reliable.  The network is polymorphic in the
    application message type.

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

type topology
(** A node and channel set fixed once, with every node's sorted
    successors and predecessors.  It is immutable, so any number of
    networks, on any domains, can be made {!over} one. *)

val topology : 'msg t -> topology
(** The network's nodes and channels as they are now.  Later
    {!add_node} and {!connect} calls do not change the value returned;
    until one happens, every call returns the same value. *)

val over : Engine.t -> topology -> (int -> src:int -> 'msg -> unit) -> 'msg t
(** A network whose nodes and channels are [topology]'s, every link
    {!Link.ideal}, unlabeled.  It costs what it touches: a channel's
    record is made on its first send, a node's on its first delivery or
    {!set_handler}, and until [set_handler] replaces it node [id]'s
    handler is [first id].  {!add_node} and {!connect} raise
    [Invalid_argument].  It answers every query, {!digest} included,
    as a network built by [add_node] and [connect] with ideal links
    would. *)

(** [create ?label eng] builds an empty network.
    [label] opts this network into the global telemetry registry:
    counters [net.<label>.sent/delivered/dropped/node_downs/link_downs]
    and downtime histograms [net.<label>.node_downtime_us] /
    [net.<label>.link_downtime_us], and its events ({!emit_lazy}:
    send, deliver, drop, churn, crash, and the speakers' own) reach
    the telemetry sink.  Leave it unset for throwaway networks (shadow
    replays) so they do not pollute the live run's accounting or
    timeline. *)
val create : ?label:string -> Engine.t -> 'msg t
val engine : 'msg t -> Engine.t

val emit_lazy : 'msg t -> node:int -> kind:string -> (unit -> string) -> unit
(** Record a [trace] event at the current simulated time through
    {!Telemetry.trace_event}.  Only a labeled network emits, and only
    while {!Telemetry.enabled}; otherwise the detail thunk never runs,
    so call sites pay nothing for events nobody reads. *)

val add_node : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** @raise Invalid_argument if the node already exists. *)

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Replace an existing node's message handler. *)

val connect : 'msg t -> int -> int -> Link.t -> unit
(** [connect t a b link] creates the directed channel [a -> b].
    @raise Invalid_argument if either endpoint is unknown or the channel
    exists. *)

val connect_sym : 'msg t -> int -> int -> Link.t -> unit
(** Both directions with the same link model. *)

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
(** Bring every down link (not node) back up. *)

(** {1 Introspection} *)

val has_node : 'msg t -> int -> bool

val neighbors_out : 'msg t -> int -> int list
(** Ascending; costs the node's degree. *)

val neighbors_in : 'msg t -> int -> int list
(** Ascending; costs the node's degree. *)

val channels : 'msg t -> (int * int) list
(** Ascending; sorted once per change of the channel set. *)

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
