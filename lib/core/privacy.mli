(** The narrow information-sharing interface.

    In a federated system the explorer cannot read remote nodes'
    state.  Remote nodes run property checks locally and share only a
    digest: property name, verdict, and an opaque commitment to the
    evidence (a hash), never the evidence itself.  The explorer
    aggregates digests into the system-wide verdict. *)

type digest = private {
  d_node : int;
  d_property : string;
  d_ok : bool;
  d_commitment : int;  (** hash of the local evidence; reveals nothing *)
}

val digest : node:int -> property:string -> ok:bool -> evidence:string -> digest

val leaks_nothing : digest -> string -> bool
(** [leaks_nothing d evidence] — the evidence text occurs in none of
    the digest's fields (each rendered as text) and not in its
    {!pp_digest} rendering. *)

type aggregate = {
  total : int;
  violations : (int * string) list;  (** (node, property) pairs that failed *)
}

val aggregate : digest list -> aggregate
val all_ok : aggregate -> bool
val pp_digest : Format.formatter -> digest -> unit
