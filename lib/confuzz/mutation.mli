(** Semantic configuration mutations — the operator-error catalog.

    Each mutation is one plausible operator mistake over {!Bgp.Config}
    / {!Bgp.Policy}: a fat-fingered constant, a flipped action, a
    dropped or shadowed clause, a typo'd map reference, a
    traffic-engineering pin with the wrong community tag.  Mutations
    are concrete values (no RNG at application time), carry a
    machine-readable description, round-trip through JSON, and apply
    to a configuration either functionally ({!apply_config}) or to a
    live speaker ({!apply_speaker}) — so a minimized repro names the
    exact config edit that caused the fault.

    A mutation may produce a configuration that {!Bgp.Config.validate}
    rejects (e.g. {!Ref_dangle} references an undefined map) — that is
    the point: routers accept such configs at runtime (a dangling map
    reference silently becomes deny-all), which is itself an operator
    error worth finding.  Use [validate]/[lint] to classify a mutant as
    invalid vs valid-but-wrong. *)

type dir = Import | Export

type t =
  | Pref_const of { node : int; map : string; seq : int; value : int }
      (** overwrite the entry's [set local-pref] with [value] *)
  | Pref_swap of
      { node : int; map_a : string; seq_a : int; map_b : string; seq_b : int }
      (** swap the local-pref constants of two entries *)
  | Med_const of { node : int; map : string; seq : int; value : int option }
      (** overwrite the entry's [set med] *)
  | Action_flip of { node : int; map : string; seq : int }  (** permit <-> deny *)
  | Match_drop of { node : int; map : string; seq : int; idx : int }
      (** delete match clause [idx] (widens the conjunction) *)
  | Match_dup of { node : int; map : string; seq : int; idx : int }
      (** duplicate match clause [idx] (redundant, semantics-preserving) *)
  | Match_reorder of { node : int; map : string; seq : int }
      (** reverse the entry's match clauses *)
  | Entry_shadow of { node : int; map : string; seq : int }
      (** insert a match-anything copy of the entry's action/sets ahead
          of the whole map, deadening every later entry *)
  | Community_rewrite of
      { node : int; map : string; seq : int; community : Bgp.Community.t }
      (** rewrite the entry's community references (match + add) *)
  | Community_strip of { node : int; map : string; seq : int }
      (** delete the entry's community set clauses *)
  | Prefix_widen of
      { node : int; map : string; seq : int; idx : int; ge : int option; le : int option }
      (** rewrite the ge/le bounds of every rule in prefix-match clause
          [idx]; bounds are clamped per rule to the valid
          [[len, 32]] range *)
  | Ref_dangle of { node : int; neighbor : int; dir : dir }
      (** typo the neighbor's map reference so it dangles (deny-all) *)
  | Ref_swap of { node : int; neighbor : int }
      (** swap the neighbor's import and export map references *)
  | Originate_foreign of { node : int; prefix : Bgp.Prefix.t }
      (** network-statement typo: originate someone else's prefix *)
  | Network_drop of { node : int; prefix : Bgp.Prefix.t }
      (** withdraw a network statement — the repair engine's inverse of
          {!Originate_foreign}.  Never generated by {!random} (dropping
          announcements only finds trivial reachability holes); it
          exists so candidate patches are expressible as mutations. *)
  | Te_pin of
      { node : int; map : string; prefix : Bgp.Prefix.t; via_asn : int; pref : int }
      (** traffic-engineering pin: prepend a high-preference entry
          pinning [prefix] via neighbor [via_asn], mis-tagged as
          peer-learned (the Gao-Rexford dispute-wheel building block) *)

val node_of : t -> int
val nodes_of : t -> int list
(** Nodes a replay must keep for the mutation to apply ([node], plus
    the owner-independent prefix carries no node). *)

val kind_name : t -> string
val describe : t -> string
(** One line, machine-readable: router, map/entry and the edit. *)

val to_json : t -> Telemetry.Json.t
val of_json : Telemetry.Json.t -> (t, string) result
(** Round-trip guarantee: [of_json (to_json m) = Ok m]. *)

val apply_config : t -> Bgp.Config.t -> (Bgp.Config.t, string) result
(** [Error] when the target (map, entry, clause, neighbor) does not
    exist in the configuration — the mutation is inapplicable. *)

val apply_speaker : (int -> Bgp.Speaker.t) -> t -> (unit, string) result
(** Apply to a live network: read the target speaker's config, mutate,
    [sp_set_config].  The speaker lookup may raise (pruned node); that
    propagates. *)

(** {1 Seeded generation} *)

type ctx = {
  cx_configs : (int * Bgp.Config.t) list;  (** node id, deployed config *)
  cx_peers : (int * int list) list;  (** node id -> peer-role neighbor ids *)
  cx_customers : (int * int list) list;  (** node id -> customer neighbor ids *)
  cx_prefixes : (int * Bgp.Prefix.t) list;  (** owner node, originated prefix *)
}

val ctx_of_graph : Topology.Graph.t -> ctx
(** Context for a Gao-Rexford deployment of [graph]. *)

val applies : ctx -> t list -> bool
(** Does the stack apply, in order, to the configs of [ctx]?  One
    inapplicable mutation makes the whole stack inapplicable. *)

val random : rng:Netsim.Rng.t -> ?parent:t list -> ctx -> t option
(** One seeded mutation, uniform over the instantiable catalog.
    [parent] is the mutant being extended: a new {!Te_pin} chains onto
    parent pins (same victim, adjacent peer) so dispute wheels can
    assemble under coverage guidance.  [None] when nothing in the
    catalog applies (e.g. empty configs).  Deterministic in [rng]. *)

val targeted :
  rng:Netsim.Rng.t -> ctx -> Bgp.Clause_cov.point -> t option
(** A mutation chosen to flip the uncovered coverage point: widen the
    prefix rule / rewrite the community a never-true match tests, drop
    a blocking sibling clause for a never-decided entry, narrow an
    always-true clause.  Falls back to [None] when no catalog edit can
    plausibly reach the point (the caller then falls back to
    {!random}). *)
