(** Fault injection: the three fault classes of the paper's evaluation,
    reproduced as mutations of a deployed topology. *)

type scenario =
  | Prefix_hijack of { at : int; victim : int }
      (** operator mistake: [at]'s operator fat-fingers a network
          statement and originates [victim]'s prefix *)
  | Bogus_netmask of { at : int }
      (** operator mistake: [at] announces a martian (127.0.0.0/8) *)
  | Policy_dispute of { cycle : int list; victim : int }
      (** policy conflict: each AS in [cycle] (pairwise peers, e.g. the
          tier-1 clique) prefers the route to [victim]'s prefix via the
          next cycle member over its own customer route — a BAD-GADGET
          dispute wheel *)
  | Loop_check_bug of { at : int }  (** programming error *)
  | Inverted_med_bug of { at : int }  (** programming error *)
  | Crash_bug of { at : int; community : Bgp.Community.t }
      (** programming error: malformed-community handler crash *)

val describe : scenario -> string
val fault_class : scenario -> Fault.fault_class

val apply : Topology.Build.t -> scenario -> unit
(** Mutates configurations / bug flags on the live deployment.
    @raise Invalid_argument for a [Policy_dispute] whose cycle members
    are not pairwise peers of each other. *)
