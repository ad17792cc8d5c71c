type origin = Igp | Egp | Incomplete

let origin_code = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_of_code = function
  | 0 -> Some Igp
  | 1 -> Some Egp
  | 2 -> Some Incomplete
  | _ -> None

let origin_to_string = function Igp -> "IGP" | Egp -> "EGP" | Incomplete -> "incomplete"

type unknown = { u_type : int; u_flags : int; u_value : string }

type t = {
  origin : origin;
  as_path : As_path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  atomic_aggregate : bool;
  aggregator : (int * Ipv4.t) option;
  communities : Community.t list;
  unknown : unknown list;
}

let make ?(origin = Igp) ?(as_path = As_path.empty) ?(med = None) ?(local_pref = None)
    ?(atomic_aggregate = false) ?(aggregator = None) ?(communities = [])
    ?(unknown = []) ~next_hop () =
  { origin; as_path; next_hop; med; local_pref; atomic_aggregate; aggregator;
    communities; unknown }

let with_local_pref lp t = { t with local_pref = Some lp }
let with_med med t = { t with med }

let add_community c t =
  if List.exists (Community.equal c) t.communities then t
  else { t with communities = List.sort Community.compare (c :: t.communities) }

let remove_community c t =
  { t with communities = List.filter (fun x -> not (Community.equal c x)) t.communities }

let has_community c t = List.exists (Community.equal c) t.communities

let effective_local_pref t = Option.value t.local_pref ~default:100

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let pp ppf t =
  Format.fprintf ppf "@[<h>origin=%s path=[%a] nh=%a lp=%s med=%s coms=[%s]@]"
    (origin_to_string t.origin) As_path.pp t.as_path Ipv4.pp t.next_hop
    (match t.local_pref with Some v -> string_of_int v | None -> "-")
    (match t.med with Some v -> string_of_int v | None -> "-")
    (String.concat "," (List.map Community.to_string t.communities))

let code_origin = 1
let code_as_path = 2
let code_next_hop = 3
let code_med = 4
let code_local_pref = 5
let code_atomic_aggregate = 6
let code_aggregator = 7
let code_communities = 8

let flag_optional = 0x80
let flag_transitive = 0x40
let flag_partial = 0x20
let flag_extended = 0x10
