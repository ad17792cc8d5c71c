(** Deploy a topology into a running simulation: one network node and
    one BGP speaker per AS, links with Internet-like characteristics,
    Gao–Rexford configurations.

    Deployments may be heterogeneous: by default every node runs the
    reference ("bird-like") implementation; [sparrow_nodes] selects
    nodes that run {!Bgp.Sparrow} instead. *)

type t = {
  graph : Graph.t;
  engine : Netsim.Engine.t;
  net : string Netsim.Network.t;
  speakers : (int * Bgp.Speaker.t) list;  (** sorted by node id *)
  by_number : Bgp.Speaker.t array;
      (** the same speakers by the network topology's node number *)
}

val deploy : ?seed:int -> ?sparrow_nodes:int list -> Graph.t -> t
(** Every node gets its {!Gao_rexford.config_of} configuration, no bug
    flags and {!Generate.link_model} links.  Defaults: seed 42,
    homogeneous bird-like deployment. *)

val speaker : t -> int -> Bgp.Speaker.t
(** The node's speaker, found by its topology node number.
    @raise Invalid_argument for a node not deployed. *)

val start_all : t -> unit

val run_for : t -> Netsim.Time.span -> unit

val converge : t -> bool
(** Advance the simulation until every speaker's Loc-RIB is unchanged
    and no UPDATE was sent over a whole 30 s window, or 600 s of
    simulated time elapse.  Returns whether quiescence was reached. *)

val total_updates_sent : t -> int

val loc_rib_snapshot : t -> (int * (Bgp.Prefix.t * int) list) list
(** Per node: selected (prefix, next-hop AS as node id, -1 for local). *)

val total_loc_routes : t -> int
val established_sessions : t -> int
(** Directed count, so a fully-up session between two routers counts 2. *)
