module J = Telemetry.Json

let version = "dice-campaign/1"

type job_final = {
  f_job : int;
  f_template : string;
  f_seed : int;
  f_status : Journal.status;
  f_attempts : int;
  f_signatures : string list;
  f_cascades : string list;
}

type t = {
  r_json : J.t;
  r_outcome : string;
  r_gate_failed : bool;
}

let strings l = J.List (List.map (fun s -> J.String s) l)

let count p l = List.length (List.filter p l)

let is_ok f = match f.f_status with Journal.Passed -> true | _ -> false
let is_error f = match f.f_status with Journal.Failed _ -> true | _ -> false
let is_hung f = match f.f_status with Journal.Hung -> true | _ -> false

let build ~name ~spec_digest ~templates ~total ~finals ~quarantines ~filed =
  let finals = List.sort (fun a b -> Int.compare a.f_job b.f_job) finals in
  let retried =
    List.fold_left (fun acc f -> acc + max 0 (f.f_attempts - 1)) 0 finals
  in
  let quarantine_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 quarantines
  in
  let template_json tpl =
    let mine = List.filter (fun f -> String.equal f.f_template tpl) finals in
    let signatures =
      List.sort_uniq String.compare (List.concat_map (fun f -> f.f_signatures) mine)
    in
    let q =
      match List.assoc_opt tpl quarantines with Some n -> n | None -> 0
    in
    J.Obj
      [ ("name", J.String tpl);
        ("completed", J.Int (List.length mine));
        ("ok", J.Int (count is_ok mine));
        ("error", J.Int (count is_error mine));
        ("hung", J.Int (count is_hung mine));
        ("quarantines", J.Int q);
        ("signatures", strings signatures) ]
  in
  let signature_census =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun f ->
        List.iter
          (fun sg ->
            Hashtbl.replace tbl sg
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl sg)))
          (List.sort_uniq String.compare f.f_signatures))
      finals;
    Hashtbl.fold (fun sg n acc -> (sg, n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (sg, n) ->
           J.Obj [ ("signature", J.String sg); ("jobs", J.Int n) ])
  in
  let cascades =
    List.sort_uniq String.compare (List.concat_map (fun f -> f.f_cascades) finals)
  in
  let gate_failed = cascades <> [] in
  let completed = List.length finals in
  let degraded =
    completed < total || count is_error finals > 0 || count is_hung finals > 0
    || quarantine_total > 0
  in
  let outcome =
    if gate_failed then "failed" else if degraded then "degraded" else "passed"
  in
  let json =
    J.Obj
      [ ("schema", J.String version);
        ("doc", J.String "report");
        ("name", J.String name);
        ("spec", J.String spec_digest);
        ( "jobs",
          J.Obj
            [ ("total", J.Int total);
              ("completed", J.Int completed);
              ("ok", J.Int (count is_ok finals));
              ("error", J.Int (count is_error finals));
              ("hung", J.Int (count is_hung finals));
              ("retried", J.Int retried) ] );
        ("templates", J.List (List.map template_json templates));
        ("signatures", J.List signature_census);
        ("filed", strings (List.sort String.compare filed));
        ( "health",
          J.Obj
            [ ("cascades", strings cascades);
              ("gate", J.String (if gate_failed then "failed" else "ok")) ] );
        ("outcome", J.String outcome) ]
  in
  { r_json = json; r_outcome = outcome; r_gate_failed = gate_failed }

(* --- validation ------------------------------------------------------- *)

let ( let* ) = Result.bind

module A = Telemetry.Artifact

let counts names json =
  List.fold_left
    (fun acc name ->
      let* () = acc in
      let* n = A.int_field name json in
      if n >= 0 then Ok () else Error (Printf.sprintf "negative %S count" name))
    (Ok ()) names

let string_list = A.list_of A.as_string

let validate json =
  let* () = A.check_schema version json in
  let* doc = A.string_field "doc" json in
  let* () =
    if String.equal doc "report" then Ok ()
    else Error (Printf.sprintf "document is a %S, not a campaign report" doc)
  in
  let* _name = A.string_field "name" json in
  let* _spec = A.string_field "spec" json in
  let* jobs = A.field "jobs" json in
  let* () =
    counts [ "total"; "completed"; "ok"; "error"; "hung"; "retried" ] jobs
  in
  let* () =
    match (J.member "total" jobs, J.member "completed" jobs) with
    | Some (J.Int t), Some (J.Int c) when c > t ->
        Error "more completed jobs than total"
    | _ -> Ok ()
  in
  let* templates = A.list_field "templates" json in
  let* () =
    List.fold_left
      (fun acc t ->
        let* () = acc in
        let* name = A.string_field "name" t in
        let in_tpl msg = Printf.sprintf "template %S: %s" name msg in
        let* () =
          Result.map_error in_tpl
            (counts
               [ "completed"; "ok"; "error"; "hung"; "quarantines" ]
               t)
        in
        let* _ = Result.map_error in_tpl (string_list "signatures" t) in
        Ok ())
      (Ok ()) templates
  in
  let* census = A.list_field "signatures" json in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let* _ = A.string_field "signature" s in
        let* n = A.int_field "jobs" s in
        if n > 0 then Ok ()
        else Error "signature census entry needs a positive \"jobs\"")
      (Ok ()) census
  in
  let* _filed = string_list "filed" json in
  let* health = A.field "health" json in
  let* cascades = string_list "cascades" health in
  let* gate = A.string_field "gate" health in
  let* () =
    match gate with
    | "ok" when cascades = [] -> Ok ()
    | "failed" when cascades <> [] -> Ok ()
    | "ok" | "failed" -> Error "health gate disagrees with cascade list"
    | g -> Error (Printf.sprintf "unknown health gate %S" g)
  in
  let* outcome = A.string_field "outcome" json in
  let* () =
    match outcome with
    | "passed" | "degraded" | "failed" -> Ok ()
    | o -> Error (Printf.sprintf "unknown outcome %S" o)
  in
  let* () =
    match (gate, outcome) with
    | "failed", ("passed" | "degraded") ->
        Error "outcome must be \"failed\" when the health gate failed"
    | "ok", "failed" -> Error "outcome \"failed\" requires a failed health gate"
    | _ -> Ok ()
  in
  Ok ()
