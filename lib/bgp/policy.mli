(** Routing policy: route maps.

    A route map is an ordered list of entries.  The first entry whose
    match clauses all hold decides: [Permit] applies the set clauses and
    accepts, [Deny] rejects.  If no entry matches the route is rejected
    (default-deny, as in BIRD filters). *)

type prefix_rule = { rule_prefix : Prefix.t; ge : int option; le : int option }
(** Matches prefixes subsumed by [rule_prefix] whose length satisfies
    [ge <= len <= le]; both default to the rule's own length (exact
    match). *)

val prefix_rule : ?ge:int -> ?le:int -> Prefix.t -> prefix_rule

val prefix_rule_bounds : prefix_rule -> int * int
(** [(lo, hi)], the inclusive prefix-length range the rule accepts
    (Cisco prefix-list semantics): no bound is the exact length, [ge]
    alone opens the range up to /32, [le] alone starts it at the rule's
    own length.  The one statement of this rule; the symbolic mirror
    and the repair engine read it from here. *)

val prefix_rule_matches : prefix_rule -> Prefix.t -> bool

type as_path_test =
  | Path_contains of int
  | Path_originated_by of int
  | Path_neighbor_is of int
  | Path_length_at_most of int
  | Path_length_at_least of int

type match_clause =
  | Match_prefix of prefix_rule list  (** disjunction *)
  | Match_as_path of as_path_test
  | Match_community of Community.t
  | Match_origin of Attr.origin
  | Match_next_hop of Ipv4.t

type set_clause =
  | Set_local_pref of int
  | Set_med of int option
  | Set_origin of Attr.origin
  | Add_community of Community.t
  | Del_community of Community.t
  | Prepend_as of int * int  (** asn, count *)
  | Set_next_hop of Ipv4.t

type action = Permit | Deny

type entry = {
  seq : int;
  action : action;
  matches : match_clause list;  (** conjunction; empty matches anything *)
  sets : set_clause list;
}

type t = entry list

val accept_all : t
val deny_all : t
(** [deny_all] is the empty route map (default deny). *)

val entry : ?matches:match_clause list -> ?sets:set_clause list -> int -> action -> entry

val normalize : t -> t
(** Sort entries by sequence number. *)

val matches_route : match_clause -> Prefix.t -> Attr.t -> bool

(** {1 Clause coverage instrumentation}

    When a coverage observer is installed ({!set_cov_observer}) and the
    caller identifies the evaluation with a [?site], {!apply} reports
    every clause it evaluates and the outcome.  Observed and plain
    evaluation are one walk, so order and short-circuiting are
    identical: a match
    clause after a failing one in the same entry is never evaluated and
    therefore never reported, and an entry shadowed by an earlier
    deciding entry records nothing — shadowed policy text shows up as
    uncovered, which is exactly the signal the config fuzzer steers by. *)

type cov_site = { cs_node : int; cs_map : string }
(** Which router and which route map an evaluation belongs to. *)

type cov_point =
  | Cov_match of { idx : int; outcome : bool }
      (** match clause [idx] of the entry evaluated to [outcome] *)
  | Cov_action  (** the entry decided the route (all matches held) *)
  | Cov_set of int  (** set clause [idx] was applied (Permit only) *)
  | Cov_fallthrough  (** no entry matched: default deny ([seq] = -1) *)

type cov_observer = cov_site -> seq:int -> cov_point -> unit

val set_cov_observer : cov_observer option -> unit
(** Install (or clear) the process-global observer.  Observation costs
    one [Atomic.get] per {!apply} when no [?site] is passed. *)

val cov_on : unit -> bool
(** Is an observer currently installed? *)

val deciding : t -> Prefix.t -> Attr.t -> entry option
(** The entry that decides a route: the first in list order whose
    match clauses all hold (maps are not normalized on the hot path),
    or [None] for the default deny.  {!apply} decides through this
    same walk. *)

val apply : ?site:cov_site -> t -> Prefix.t -> Attr.t -> Attr.t option
(** [None] when the route is rejected.  [site] is only used for
    coverage reporting and never changes the result. *)

(** {1 Route tracing}

    A second, independent observer that records whole evaluations
    (input route, output route) rather than clause hits.  The repair
    localizer installs one to harvest witness routes for suspect
    sites.  Like the coverage observer it only fires when the caller
    passes a [?site] and never changes the result. *)

type trace_observer = cov_site -> Prefix.t -> Attr.t -> Attr.t option -> unit
(** [f site prefix attrs_in result]: one call per {!apply} with a
    site; [result] is exactly what [apply] returns. *)

val set_trace_observer : trace_observer option -> unit

(** {1 Constant slots}

    The repair engine's hook (DESIGN.md §2.6j): enumerate the tunable
    integer constants of one entry so a symbolic layer can lift them
    into solver variables.  Only constants with a natural integer
    encoding are exposed: the permit/deny bit (1/0), [Set_local_pref]
    and concrete [Set_med] values, community literals in
    [Match_community]/[Add_community] (via {!Community.to_int}), and
    prefix-rule [ge]/[le] bounds that are actually present ([None]
    bounds stay [None] — absence is structure, not a constant). *)

type const_slot =
  | S_action  (** permit=1 / deny=0 *)
  | S_local_pref of int  (** set-clause index *)
  | S_med of int  (** set-clause index (concrete MED only) *)
  | S_match_ge of int * int  (** match-clause index, rule index *)
  | S_match_le of int * int  (** match-clause index, rule index *)
  | S_match_community of int  (** match-clause index *)
  | S_add_community of int  (** set-clause index *)

val slot_id : const_slot -> string
(** Stable short id, e.g. ["s0.lp"], ["m1.r0.ge"] — used to name
    solver variables. *)

val slots : entry -> (const_slot * int) list
(** The entry's slots with their current values: [S_action] first,
    then match-clause slots, then set-clause slots, each in clause
    order. *)

val pp : Format.formatter -> t -> unit
