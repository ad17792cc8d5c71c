(** Fault localization: rank the config sites that can explain a
    confirmed fault.

    One instrumented deterministic replay of the minimized scenario —
    {!Bgp.Clause_cov} armed for clause coverage, a {!Bgp.Policy}
    trace observer harvesting every policy evaluation of a contested
    prefix — yields, per candidate site, the witness routes it decided
    and the strongest competing route at the same router.  Suspects are
    scored by how directly they sit on the fault's propagation path:
    the node the signature names, nodes any replay fault names (for a
    cascade-rooted outcome these are exactly the cascade graph's root
    vertices, reused here), mutated routers, local-pref setters for
    convergence faults.  Clause coverage is the pruning dual: an entry
    whose action point never fired decided nothing and is never a
    suspect, and externally supplied uncovered point ids (a
    [dice-confuzz-cov/1] report's) are negative evidence that excludes
    a site outright. *)

type site =
  | Policy_site of { ps_node : int; ps_map : string; ps_seq : int }
      (** one route-map entry on one router *)
  | Network_site of { ns_node : int; ns_prefix : Bgp.Prefix.t }
      (** a network statement originating a prefix the node does not
          own — the hijack-shaped suspect *)

val site_id : site -> string
(** Stable id: ["n4/FROM-PEER/e10"] / ["n9/net/192.0.0.0/24"]. *)

val compare_site : site -> site -> int
val site_to_json : site -> Telemetry.Json.t

type witness = {
  w_prefix : Bgp.Prefix.t;
  w_attrs_in : Bgp.Attr.t;  (** route as presented to the map (pre-policy) *)
  w_out : Bgp.Attr.t option;  (** what the whole map produced *)
}
(** One observed evaluation of a contested prefix that the suspect
    entry decided. *)

val compare_witness : witness -> witness -> int
(** By prefix text, then input attributes, then output. *)

val dedupe_witnesses : witness list -> witness list
(** The first 8 distinct witnesses in {!compare_witness} order, as a
    suspect carries them. *)

type suspect = {
  su_site : site;
  su_score : int;
  su_witnesses : witness list;  (** deduplicated, capped, sorted *)
  su_alt_pref : int;
      (** best effective local-pref among competing final-state RIB
          candidates at the router for the witnessed prefixes,
          excluding candidates carrying a local-pref the suspect entry
          itself sets; 100 (the default pref) when none were seen *)
  su_map : Bgp.Policy.t;
      (** the live route map containing the suspect entry (captured
          post-mutation); empty for a [Network_site] *)
}

type evidence = {
  ev_target : Dice.Signature.t;
  ev_baseline : Dice.Signature.t list;
      (** every signature of the instrumented replay — the verifier's
          "no new signatures" reference set *)
  ev_fault_nodes : int list;  (** nodes named by any replay fault *)
  ev_suspects : suspect list;  (** ranked, best first *)
}

val run :
  ?negative:string list ->
  target:Dice.Signature.t ->
  Triage.Scenario.t ->
  (evidence, string) result
(** Replay [scenario] once with instrumentation and build the ranked
    suspect list for [target].  [negative] is a list of
    {!Bgp.Clause_cov} point ids known uncovered in this repro (e.g.
    from a fuzzing campaign's coverage report): any site whose action
    point is among them is excluded.  The ranking keeps the top 16
    suspects.

    Errors: wire scenarios, replays that fail to set up, and replays
    that do not reproduce [target].  Side effects: the process-global
    coverage registry is reset and re-registered from the deployed
    configs; prior enablement is restored on exit. *)
