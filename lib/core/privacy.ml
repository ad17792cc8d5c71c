type digest = {
  d_node : int;
  d_property : string;
  d_ok : bool;
  d_commitment : int;
}

let digest ~node ~property ~ok ~evidence =
  { d_node = node; d_property = property; d_ok = ok;
    d_commitment = Hashtbl.hash (node, property, evidence) }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

type aggregate = {
  total : int;
  violations : (int * string) list;
}

let aggregate digests =
  { total = List.length digests;
    violations =
      List.filter_map
        (fun d -> if d.d_ok then None else Some (d.d_node, d.d_property))
        digests }

let all_ok a = a.violations = []

let pp_digest ppf d =
  Format.fprintf ppf "node=%d %s %s #%08x" d.d_node d.d_property
    (if d.d_ok then "ok" else "VIOLATED")
    (d.d_commitment land 0xFFFFFFFF)

(* An empty evidence string has nothing to leak. *)
let leaks_nothing d evidence =
  evidence = ""
  || not
       (List.exists
          (fun field -> contains field evidence)
          [ string_of_int d.d_node; d.d_property; string_of_bool d.d_ok;
            string_of_int d.d_commitment; Format.asprintf "%a" pp_digest d ])
