module J = Telemetry.Json
module M = Confuzz.Mutation

let schema_version = "dice-repair/1"

let signature_json s = J.String (Dice.Signature.to_string s)

let witness_count (su : Localize.suspect) = List.length su.Localize.su_witnesses

let suspect_json (su : Localize.suspect) =
  J.Obj
    [ ("site", Localize.site_to_json su.Localize.su_site);
      ("id", J.String (Localize.site_id su.Localize.su_site));
      ("score", J.Int su.Localize.su_score);
      ("witnesses", J.Int (witness_count su));
      ("alt_pref", J.Int su.Localize.su_alt_pref) ]

let candidate_json (c : Search.candidate) =
  J.Obj
    ([ ("site", J.String (Localize.site_id c.Search.ca_site));
       ("model", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) c.Search.ca_model));
       ("patch", J.List (List.map M.to_json c.Search.ca_patch));
       ("describe", J.String (Patch.describe c.Search.ca_patch));
       ("verified", J.Bool c.Search.ca_verified);
       ( "replay",
         J.Obj
           ([ ( "signatures",
                J.List (List.map signature_json c.Search.ca_replay_sigs) ) ]
           @
           match c.Search.ca_replay_error with
           | None -> []
           | Some e -> [ ("error", J.String e) ]) ) ]
    )

let of_outcome (o : Search.outcome) =
  let status =
    match (o.Search.re_verified, o.Search.re_candidates) with
    | Some _, _ -> "verified"
    | None, _ :: _ -> "candidate"
    | None, [] -> "none-found"
  in
  let ev = o.Search.re_evidence in
  J.Obj
    ([ ("schema", J.String schema_version);
       ("status", J.String status);
       ("target", signature_json o.Search.re_target);
       ( "baseline",
         J.List (List.map signature_json ev.Localize.ev_baseline) );
       ( "fault_nodes",
         J.List (List.map (fun n -> J.Int n) ev.Localize.ev_fault_nodes) );
       ("suspects", J.List (List.map suspect_json ev.Localize.ev_suspects));
       ("candidates", J.List (List.map candidate_json o.Search.re_candidates))
     ]
    @
    match o.Search.re_verified with
    | None -> []
    | Some c ->
        [ ("patch", J.List (List.map M.to_json c.Search.ca_patch)) ])

let status r =
  match J.member "status" r with Some (J.String s) -> s | _ -> "none"

module A = Telemetry.Artifact

let ( let* ) = Result.bind

let decode_patch what j =
  let* p = A.field "patch" j in
  match Result.bind (A.as_list p) (A.map_result M.of_json) with
  | Ok _ -> Ok ()
  | Error e -> Error (Printf.sprintf "%s patch: %s" what e)

let validate r =
  let* () = A.check_schema schema_version r in
  let* st = A.string_field "status" r in
  let* () =
    match st with
    | "verified" | "candidate" | "none-found" -> Ok ()
    | s -> Error (Printf.sprintf "unknown status %S" s)
  in
  let* target = A.string_field "target" r in
  let* _ =
    Result.map_error (( ^ ) "bad target signature: ") (Dice.Signature.of_string target)
  in
  let* candidates = A.list_field "candidates" r in
  let* _ = A.map_result (decode_patch "candidate") candidates in
  if st = "verified" then decode_patch "verified" r else Ok ()

let pp_summary ppf r =
  let suspects =
    match J.member "suspects" r with Some (J.List l) -> List.length l | _ -> 0
  in
  let candidates =
    match J.member "candidates" r with Some (J.List l) -> List.length l | _ -> 0
  in
  let patch_desc =
    match J.member "candidates" r with
    | Some (J.List cs) ->
        List.find_map
          (fun c ->
            match (J.member "verified" c, J.member "describe" c) with
            | Some (J.Bool true), Some (J.String d) -> Some d
            | _ -> None)
          cs
    | _ -> None
  in
  Format.fprintf ppf "status=%s suspects=%d candidates=%d" (status r) suspects
    candidates;
  match patch_desc with
  | Some d -> Format.fprintf ppf "@.  patch: %s" d
  | None -> ()
