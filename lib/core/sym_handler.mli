(** The instrumented BGP UPDATE handler.

    Mirrors the router's message-processing pipeline over concolic
    values — wire validation, the seeded-bug code paths, the AS-path
    loop check, the import route map (via {!Sym_policy}), and the
    route-preference comparison against the node's current best route
    (the paper's symbolic "is this route locally most preferred"
    condition).  Running it under {!Concolic.Engine.explore} yields
    inputs that systematically cover these paths; {!concretize} turns
    each input into real wire bytes to subject a shadow clone to. *)

type view = {
  sh_node : int;
  sh_config : Bgp.Config.t;
  sh_peer : Bgp.Config.neighbor;  (** the session the input arrives on *)
  sh_bugs : Bgp.Router.bugs;
  sh_universe : Bgp.Community.t list;
  sh_loc_rib : Bgp.Rib.route Bgp.Prefix_trie.t;  (** current best routes *)
  sh_asn_lo : int;
  sh_asn_hi : int;
}

val view_of_speaker : Bgp.Speaker.t -> peer:Bgp.Ipv4.t -> view
(** The view of a speaker's current state, whatever its implementation. *)

val view_of_capture : Bgp.Speaker.capture -> peer:Bgp.Ipv4.t -> view
(** The view of a captured state, under the captured bug flags: what
    {!view_of_speaker} gives on a fresh respawn of it. *)

type outcome =
  | Malformed  (** would be rejected by the codec with a NOTIFICATION *)
  | Withdrawal of { had_route : bool }
      (** the input withdraws the prefix; [had_route] = the node
          currently selects a route for it *)
  | Rejected_loop
  | Rejected_policy
  | Accepted of { preferred : bool }

val outcome_to_string : outcome -> string

val run : view -> Concolic.Ctx.t -> outcome
(** May raise [Bgp.Router.Crash] on the seeded crash-bug path — the
    concolic engine records it as a crashing input. *)

val concretize : view -> Concolic.Ctx.input -> string
(** Wire bytes for the UPDATE described by the input — including the
    deliberate malformations selected by the [malform] field. *)

val update_of_input : view -> Concolic.Ctx.input -> Bgp.Msg.update
(** The well-formed part of [concretize] as a typed message. *)

val seeds : view -> Concolic.Ctx.input list
(** Benign announcement plus a few structurally diverse starting
    points. *)

val fuzz_inputs : view -> Netsim.Rng.t -> int -> Concolic.Ctx.input list
(** Grammar-based fuzzing over the same field space: many valid
    inputs cheaply (paper insight (iii)). *)

(** {1 Derivation memo}

    {!derive} runs the handler under {!Concolic.Engine.explore}, seeded
    with {!seeds}.  That is a pure function of the view and the limits:
    the handler reads nothing else, the solver is deterministic and its
    cache cannot change an answer, and no clause coverage is recorded
    on this path.  Between two cuts of a steady deployment a session's
    view is the same, with its config and Loc-RIB physically equal to
    the last ones, so the memo keeps, per (node, peer address), the
    last view derived, its limits and its result, and serves that
    result while the config and Loc-RIB are [==] and the bug flags and
    limits [=] to the entry's.  Any other view is derived afresh and
    replaces the entry.  A result keeps its runs' inputs and outcomes,
    not their paths. *)

type derivation = outcome Concolic.Engine.result

type memo
(** One entry per (node, peer address); the explorer's lives in the
    ground truth ({!Checks.ground_truth}), as long as it does. *)

val memo : unit -> memo
(** An empty memo. *)

val derive :
  memo -> limits:Concolic.Engine.limits -> view -> derivation * [ `Memo | `Fresh ]
(** [Concolic.Engine.explore ~limits ~seeds:(seeds view) (run view)],
    served from the memo when it holds this view, else derived and
    recorded; the tag says which. *)
