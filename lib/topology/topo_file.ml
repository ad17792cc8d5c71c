type parse_error = { line : int; message : string }

let pp_parse_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse of parse_error

let perror line fmt = Printf.ksprintf (fun message -> raise (Parse { line; message })) fmt

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment s =
  match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s

let int_arg line what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> perror line "expected integer for %s, got %S" what s

let tier_arg line = function
  | "tier1" -> Graph.Tier1
  | "transit" -> Graph.Transit
  | "stub" -> Graph.Stub
  | s -> perror line "unknown tier %S (tier1|transit|stub)" s

let parse text =
  try
    let nodes = ref [] and edges = ref [] in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        match words (strip_comment raw) with
        | [] -> ()
        | [ "node"; id; tier ] ->
            nodes := (int_arg lineno "node id" id, tier_arg lineno tier) :: !nodes
        | [ "edge"; a; b; "customer" ] ->
            edges :=
              { Graph.a = int_arg lineno "edge endpoint" a;
                b = int_arg lineno "edge endpoint" b;
                rel = Graph.Customer_provider }
              :: !edges
        | [ "edge"; a; b; "peer" ] ->
            edges :=
              { Graph.a = int_arg lineno "edge endpoint" a;
                b = int_arg lineno "edge endpoint" b;
                rel = Graph.Peer_peer }
              :: !edges
        | toks -> perror lineno "cannot parse: %s" (String.concat " " toks))
      (String.split_on_char '\n' text);
    match Graph.make ~nodes:(List.rev !nodes) ~edges:(List.rev !edges) with
    | g -> Ok g
    | exception Invalid_argument msg -> Error { line = 0; message = msg }
  with Parse e -> Error e

let parse_exn text =
  match parse text with
  | Ok g -> g
  | Error e -> invalid_arg (Format.asprintf "Topo_file.parse_exn: %a" pp_parse_error e)

let render (g : Graph.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b "# DiCE topology\n";
  List.iter
    (fun (id, tier) ->
      Buffer.add_string b
        (Printf.sprintf "node %d %s\n" id (Graph.tier_to_string tier)))
    g.Graph.nodes;
  List.iter
    (fun (e : Graph.edge) ->
      let rel = match e.rel with Graph.Customer_provider -> "customer" | Graph.Peer_peer -> "peer" in
      Buffer.add_string b (Printf.sprintf "edge %d %d %s\n" e.a e.b rel))
    g.Graph.edges;
  Buffer.contents b

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      (match parse text with
      | Ok g -> Ok g
      | Error e -> Error (Format.asprintf "%s: %a" path pp_parse_error e))
