(** Lightweight per-node checkpoints.

    A checkpoint is an immutable image of one speaker's routing state
    plus its configuration and bug flags, taken through the implementation-agnostic
    {!Bgp.Speaker} interface.  Both shipped implementations build their
    state from persistent data structures, so [take] is O(1): it copies
    pointers, not RIBs. *)

type t = {
  node : int;
  taken_at : Netsim.Time.t;
  image : Bgp.Speaker.capture;
}

val take : at:Netsim.Time.t -> Bgp.Speaker.t -> t

val respawn :
  ?bugs:Bgp.Router.bugs -> t -> net:string Netsim.Network.t -> Bgp.Speaker.t
(** Recreate the speaker (same implementation, captured state) on an
    isolated network.  It runs the bug flags captured with it unless
    [bugs] overrides them. *)

val route_count : t -> int
(** Loc-RIB + Adj-RIB-In entries — the "state size" metric used by the
    overhead experiments. *)
