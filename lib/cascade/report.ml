module Json = Telemetry.Json

let version = "dice-cascade/1"

let cascade_to_json (c : Detect.cascade) =
  let node = match c.Detect.c_nodes with n :: _ -> n | [] -> -1 in
  let signature =
    Dice.Signature.make ~node ~property:(Detect.kind_to_string c.Detect.c_kind)
      Dice.Fault.Cascade c.Detect.c_detail
  in
  Json.Obj
    [ ("kind", Json.String (Detect.kind_to_string c.Detect.c_kind));
      ("nodes", Json.List (List.map (fun n -> Json.Int n) c.Detect.c_nodes));
      ("prefixes", Json.List (List.map (fun p -> Json.String p) c.Detect.c_prefixes));
      ("count", Json.Int c.Detect.c_count);
      ("period_us",
       match c.Detect.c_period_us with Some p -> Json.Int p | None -> Json.Null);
      ("first_us", Json.Int c.Detect.c_first_us);
      ("last_us", Json.Int c.Detect.c_last_us);
      ("detail", Json.String c.Detect.c_detail);
      ("signature", Json.String (Dice.Signature.to_string signature)) ]

(* Everything in the report derives from event content and sim time —
   no sequence numbers, no span ids — and the cascade list arrives in
   canonical order, so a pooled and a sequential run of the same
   deployment serialize to the same bytes. *)
let to_json ~timeline ~propagation cascades =
  let tl = (timeline : Timeline.t) in
  Json.Obj
    [ ("schema", Json.String version);
      ("source",
       Json.Obj
         [ ("records", Json.Int tl.Timeline.tl_records);
           ("spans", Json.Int tl.Timeline.tl_spans);
           ("rounds", Json.Int tl.Timeline.tl_rounds);
           ("faults", Json.Int (List.length tl.Timeline.tl_faults));
           ("sys", Json.Int (List.length tl.Timeline.tl_sys));
           ("flips", Json.Int (List.length tl.Timeline.tl_flips));
           ("first_us", Json.Int tl.Timeline.tl_first_us);
           ("last_us", Json.Int tl.Timeline.tl_last_us) ]);
      ("graph",
       Json.Obj
         [ ("vertices", Json.Int (Graph.vertex_count propagation));
           ("edges", Json.Int (Graph.edge_count propagation));
           ("cycles", Json.Int (List.length (Graph.sccs propagation))) ]);
      ("cascades", Json.List (List.map cascade_to_json cascades)) ]

module A = Telemetry.Artifact

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let check_cascade c =
  let* kind = A.string_field "kind" c in
  let* () =
    match Detect.kind_of_string kind with
    | Some _ -> Ok ()
    | None -> fail "unknown kind %s" kind
  in
  let* nodes = A.list_of A.as_int "nodes" c in
  let* count = A.int_field "count" c in
  let* first_us = A.int_field "first_us" c in
  let* last_us = A.int_field "last_us" c in
  let* detail = A.string_field "detail" c in
  let* signature = A.string_field "signature" c in
  if nodes = [] then fail "nodes must be a non-empty int list"
  else if count < 1 then fail "count < 1"
  else if first_us > last_us then fail "first_us > last_us"
  else if detail = "" then fail "missing detail"
  else
    match Dice.Signature.of_string signature with
    | Ok sg when sg.Dice.Signature.sg_class = Dice.Fault.Cascade -> Ok ()
    | Ok _ -> fail "signature class is not cascade"
    | Error e -> fail "bad signature: %s" e

let validate json =
  let* () = A.check_schema version json in
  let* source = A.field "source" json in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* n = A.int_field k source in
        if n >= 0 then Ok () else fail "source.%s is negative (%d)" k n)
      (Ok ())
      [ "records"; "rounds"; "faults"; "sys"; "flips" ]
  in
  let* cascades = A.list_field "cascades" json in
  let rec all i = function
    | [] -> Ok ()
    | c :: rest ->
        let* () =
          Result.map_error (Printf.sprintf "cascades[%d]: %s" i) (check_cascade c)
        in
        all (i + 1) rest
  in
  all 0 cascades

let dot_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot propagation =
  let buf = Buffer.create 4096 in
  let cyclic = Graph.cyclic_states propagation in
  Buffer.add_string buf "digraph cascade {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  Array.iteri
    (fun i st ->
      Buffer.add_string buf
        (Printf.sprintf "  s%d [label=\"%s\"%s];\n" i
           (dot_escape (Graph.state_label st))
           (if cyclic.(i) then ", style=filled, fillcolor=mistyrose" else "")))
    (Graph.states propagation);
  List.iter
    (fun (u, v, kind) ->
      let color =
        match kind with
        | Graph.Recurrence -> "red"
        | Graph.Induced -> "darkorange"
        | Graph.Flap -> "blue"
      in
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [color=%s, label=\"%s\", fontsize=8];\n" u
           v color
           (Graph.edge_kind_to_string kind)))
    (Graph.edges propagation);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_dot ~path propagation =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_dot propagation))
