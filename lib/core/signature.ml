type t = {
  sg_class : Fault.fault_class;
  sg_property : string;
  sg_role : string;
  sg_node : int;
  sg_detail : string;
}

(* Field values must stay free of the '|' separator and of newlines so
   [to_string] is unambiguous and one signature is one line. *)
let sanitize s =
  String.map
    (function '|' -> '/' | '\n' | '\r' | '\t' -> ' ' | c -> c)
    s

let wire_role = "wire"

let role_of_graph graph node =
  match graph with
  | None -> "-"
  | Some g -> (
      if node < 0 then wire_role
      else
        try Topology.Graph.tier_to_string (Topology.Graph.tier_of g node)
        with Invalid_argument _ -> "-")

let make ?graph ?role ~node ~property cls detail =
  { sg_class = cls;
    sg_property = sanitize property;
    sg_role =
      (match role with Some r -> sanitize r | None -> role_of_graph graph node);
    sg_node = node;
    sg_detail = Fault.normalize_detail detail }

let of_fault ?graph (f : Fault.t) =
  make ?graph ~node:f.Fault.f_node ~property:f.Fault.f_property
    f.Fault.f_class f.Fault.f_detail

let to_string t =
  Printf.sprintf "%s|%s|%s|%d|%s"
    (Fault.class_to_string t.sg_class)
    t.sg_property t.sg_role t.sg_node t.sg_detail

let of_string s =
  match String.split_on_char '|' s with
  | cls :: property :: role :: node :: detail -> (
      match (Fault.class_of_string cls, int_of_string_opt node) with
      | Some sg_class, Some sg_node ->
          Ok
            { sg_class; sg_property = property; sg_role = role; sg_node;
              (* Lenient: a detail that somehow grew a '|' still parses. *)
              sg_detail = String.concat "/" detail }
      | None, _ -> Error (Printf.sprintf "Signature.of_string: bad class %S" cls)
      | _, None -> Error (Printf.sprintf "Signature.of_string: bad node %S" node))
  | _ -> Error "Signature.of_string: expected class|property|role|node|detail"

let equal a b = String.equal (to_string a) (to_string b)
let compare a b = String.compare (to_string a) (to_string b)

let pp ppf t = Format.pp_print_string ppf (to_string t)
