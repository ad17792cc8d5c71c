(** Gao–Rexford routing policies.

    Turns a relationship-labelled topology into per-router BGP
    configurations implementing the canonical export rules — routes
    learned from a provider or peer are re-exported only to customers —
    and the canonical preferences (customer > peer > provider).

    Relationship tagging uses communities in the reserved [65000:*]
    space at import; export maps match on them.  The generated
    configurations therefore exercise the whole policy engine, which is
    exactly the "configuration interpreter" surface DiCE instruments. *)

val asn_of_node : int -> int
(** 1000 + id (16-bit safe for topologies up to ~64k nodes). *)

val node_of_asn : int -> int

val prefix_of_node : int -> Bgp.Prefix.t
(** The /24 each AS originates: 192.{id/256}.{id mod 256}.0/24. *)

val community_customer : Bgp.Community.t
(** 65000:100 — route learned from a customer. *)

val community_peer : Bgp.Community.t
(** 65000:200 *)

val community_provider : Bgp.Community.t
(** 65000:300 *)

val import_map : Graph.role -> Bgp.Policy.t
(** Martian filter + relationship tagging + Gao-Rexford preference. *)

val config_of : Graph.t -> int -> Bgp.Config.t
(** The full configuration for one node: neighbors with role-specific
    import/export maps, its own network statement, and the shared
    route-map definitions. *)

val valley_free : Graph.t -> int list -> bool
(** Is the node path valley-free (and peering used at most once at the
    top)?  Ground truth for property tests. *)

val tiering : nodes:int -> int * int * int
(** [(tier1, transit, stub)] counts for an [nodes]-router Internet-like
    topology: ~2% tier-1 (min 3), ~18% transit, the rest stubs.
    @raise Invalid_argument when [nodes < 5]. *)

val scale_graph : nodes:int -> seed:int -> Graph.t
(** The canonical [nodes]-router Gao-Rexford benchmark topology for a
    seed; shared by [dice_demo --topo gao-rexford:N], the [bench scale]
    workload, and replayed scenarios so they agree on the graph. *)
