(** A BGP router bound to a simulator node.

    Stands in for BIRD: wire-encoded messages arrive from the network,
    are decoded, drive the per-peer session FSM, and UPDATEs flow
    through import policy → Adj-RIB-In → decision process → Loc-RIB →
    export policy → Adj-RIB-Out.

    The routing state ([state]) is a persistent value: checkpointing a
    router is reading one field.  Timers live outside the state and are
    re-derived, which is what makes checkpoints "lightweight". *)

type t

type state = {
  rib : Rib.t;
  sessions : Fsm.t Ipv4.Map.t;
}
(** The checkpointable routing state. *)

(** Seeded programming errors for the fault-injection experiments; all
    off by default.  Each flag twists one concrete code path, mirroring
    the bug classes the paper detects. *)
type bugs = {
  skip_loop_check : bool;  (** accept AS paths containing our own AS *)
  invert_med : bool;  (** prefer *higher* MED (wrong comparison) *)
  crash_community : Community.t option;
      (** raise on routes carrying this community (crash bug) *)
  prepend_overflow : bool;  (** 8-bit wraparound of the prepend count *)
  fragile_decode : bool;
      (** die ({!Crash}) on any malformed input instead of handling it
          — the BIRD-style UPDATE-parser crash the paper demonstrates *)
}

val no_bugs : bugs

(* --- Addressing scheme: node id <-> router address --- *)

val addr_of_node : int -> Ipv4.t
(** Node [n] owns 10.a.b.c where a.b.c encodes [n + 1]. *)

val node_of_addr : Ipv4.t -> int

val create :
  ?bugs:bugs ->
  net:string Netsim.Network.t ->
  node:int ->
  Config.t ->
  t
(** Registers the message handler on network node [node] (which must
    already exist).  Local networks are installed into the Loc-RIB
    immediately; sessions stay Idle until [start]. *)

val respawn :
  bugs:bugs -> net:string Netsim.Network.t -> node:int -> Config.t -> state -> t
(** A shadow clone in state [state], its handler registered on [node]:
    no hold, keepalive or restart timers (a shadow's virtual time only
    advances while routing work remains, so liveness machinery would
    fire spuriously), and no decision run — [state] already holds its
    outcome. *)

val start : t -> unit
(** Manual-start every configured session. *)

val stop_session : t -> Ipv4.t -> unit

val node : t -> int
val config : t -> Config.t
val set_config : t -> Config.t -> unit
(** Replace the configuration (operator action).  Re-evaluates local
    networks and re-announces exports under the new policies.  The
    session of a neighbor the new config removes is stopped first, as
    by {!stop_session}, and is not restarted. *)

val set_bugs : t -> bugs -> unit
val bugs : t -> bugs

val state : t -> state
val restore : t -> state -> unit
(** Restore routing state (used when cloning snapshots).  Timers are
    not restored; callers on shadow clones drive the router manually. *)

val digest : t -> Digest.t
(** A digest of everything the router reads to decide an event: its
    configuration, bug flags, whether it runs liveness timers (a live
    router) or not (a {!respawn}), the Loc-RIB, the Adj-RIBs-In and
    -Out, and every session's FSM.  Left out: [stats] (counters nothing
    decides on) and the timer handles (a live timer is an event in the
    engine queue). *)

val respawn_digest : bugs:bugs -> Config.t -> state -> Digest.t
(** [digest (respawn ~bugs ~net ~node cfg state)], without making the
    clone. *)

val rib : t -> Rib.t
val loc_rib : t -> Rib.route Prefix_trie.t
val session_state : t -> Ipv4.t -> Fsm.state option
val established_peers : t -> Ipv4.t list
val stats : t -> Netsim.Stats.t

val inject_update : t -> from:Ipv4.t -> Msg.update -> unit
(** Process an UPDATE as if received from [from] on an Established
    session (exploration entry point; bypasses the wire codec). *)

val process_raw : t -> from_node:int -> string -> unit
(** The network-facing entry point (decodes, drives the FSM). *)

exception Crash of string
(** Raised by seeded crash bugs; the explorer catches it as a
    programming-error fault. *)
