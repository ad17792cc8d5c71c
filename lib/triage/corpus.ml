module J = Telemetry.Json

let schema_version = "dice-corpus/1"

type entry = {
  e_signature : Dice.Signature.t;
  e_scenario : Scenario.t;
  e_first_seen : float;  (* unix seconds *)
  e_last_seen : float;
  e_hits : int;
  e_env : (string * string) list;
  e_repair : J.t option;  (* dice-repair/1 record, when a repair ran *)
}

let env_fingerprint () =
  [ ("ocaml", Sys.ocaml_version);
    ("os", Sys.os_type);
    ("word_size", string_of_int Sys.word_size) ]

let filename_of sg =
  Digest.to_hex (Digest.string (Dice.Signature.to_string sg)) ^ ".json"

let path_of dir sg = Filename.concat dir (filename_of sg)

(* ------------------------------------------------------------------ *)
(* Codec — [validate] is the single schema gate: the CLI, the fuzzer   *)
(* unification and the CI replay job all load entries through it.      *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  J.Obj
    ([ ("schema", J.String schema_version);
       ("signature", J.String (Dice.Signature.to_string e.e_signature));
       ("scenario", Scenario.to_json e.e_scenario);
       ("first_seen", J.Float e.e_first_seen);
       ("last_seen", J.Float e.e_last_seen);
       ("hits", J.Int e.e_hits);
       ("env", J.Obj (List.map (fun (k, v) -> (k, J.String v)) e.e_env)) ]
    (* The repair record is strictly additive: entries without one
       serialize exactly as before it existed (legacy byte-for-byte
       round-trip, pinned by test). *)
    @ match e.e_repair with None -> [] | Some r -> [ ("repair", r) ])

let ( let* ) = Result.bind

module A = Telemetry.Artifact

let repair_schema_version = "dice-repair/1"

let validate j =
  let* () = A.check_schema schema_version j in
  let* sg_s = A.string_field "signature" j in
  let* e_signature = Dice.Signature.of_string sg_s in
  let* scenario_j = A.field "scenario" j in
  let* e_scenario = Scenario.of_json scenario_j in
  let* e_first_seen = A.float_field "first_seen" j in
  let* e_last_seen = A.float_field "last_seen" j in
  let* e_hits = A.int_field "hits" j in
  let* () = if e_hits >= 1 then Ok () else Error "field \"hits\" is not positive" in
  let e_env =
    match J.member "env" j with
    | Some (J.Obj fields) ->
        List.filter_map
          (function k, J.String v -> Some (k, v) | _ -> None)
          fields
    | _ -> []
  in
  (* Optional: entries filed before the repair engine existed have no
     record; when one is present only its schema tag is checked here
     (the full structure is the repair reporter's contract, checked by
     [telemetry_check]). *)
  let* e_repair =
    match A.opt_field "repair" j with
    | None -> Ok None
    | Some r ->
        let* () = A.check_schema repair_schema_version r in
        Ok (Some r)
  in
  Ok
    { e_signature; e_scenario; e_first_seen; e_last_seen; e_hits; e_env;
      e_repair }

let entry_of_string s =
  let* j = J.of_string s in
  validate j

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let load_entry path =
  (* Every failure mode of one entry — unreadable file, torn/truncated
     JSON, schema drift — degrades to [Error] for that entry alone;
     a long campaign's corpus load must never abort wholesale because
     one file is damaged. *)
  match Result.bind (A.read_json path) validate with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

let add ~dir ?now sg scenario =
  ensure_dir dir;
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let path = path_of dir sg in
  let entry =
    match if Sys.file_exists path then load_entry path |> Result.to_option else None with
    | Some prev ->
        (* Keep the smaller repro across runs: minimization only ever
           tightens the corpus.  A stored repair record targets the
           stored scenario — replacing the repro invalidates it. *)
        let scenario =
          if Scenario.size scenario < Scenario.size prev.e_scenario then scenario
          else prev.e_scenario
        in
        let e_repair =
          if Scenario.equal scenario prev.e_scenario then prev.e_repair
          else None
        in
        { prev with
          e_scenario = scenario;
          e_last_seen = now;
          e_hits = prev.e_hits + 1;
          e_env = env_fingerprint ();
          e_repair }
    | None ->
        { e_signature = sg;
          e_scenario = scenario;
          e_first_seen = now;
          e_last_seen = now;
          e_hits = 1;
          e_env = env_fingerprint ();
          e_repair = None }
  in
  A.write_json ~path (entry_to_json entry);
  entry

let files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

let load ~dir = List.map (fun path -> (path, load_entry path)) (files dir)

let find ~dir sg =
  let path = path_of dir sg in
  if Sys.file_exists path then load_entry path |> Result.to_option else None

let remove ~dir sg =
  let path = path_of dir sg in
  if Sys.file_exists path then begin
    Sys.remove path;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Repair record                                                       *)
(* ------------------------------------------------------------------ *)

type repair_status = [ `None | `Candidate | `Verified ]

let repair_status e =
  match e.e_repair with
  | None -> `None
  | Some r -> (
      match J.member "status" r with
      | Some (J.String "verified") -> `Verified
      | Some (J.String "candidate") -> `Candidate
      | _ -> `None)

let repair_status_name = function
  | `None -> "none"
  | `Candidate -> "candidate"
  | `Verified -> "verified"

let set_repair ~dir entry repair =
  ensure_dir dir;
  let entry = { entry with e_repair = Some repair } in
  A.write_json ~path:(path_of dir entry.e_signature) (entry_to_json entry);
  entry

let patched_scenario e =
  match e.e_repair with
  | None -> None
  | Some r -> (
      match
        ( Result.bind (A.list_field "patch" r) (A.map_result Confuzz.Mutation.of_json),
          e.e_scenario )
      with
      | Ok (_ :: _ as patch), Scenario.Deploy d ->
          Some
            (Scenario.Deploy
               { d with Scenario.dp_confuzz = d.Scenario.dp_confuzz @ patch })
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Confirmed of Dice.Signature.t list
      (** the stored signature was detected again; the list holds any
          {e other} signatures the replay reported alongside it *)
  | Vanished of Dice.Signature.t list
      (** replay ran but reported different (possibly zero) signatures *)
  | Replay_error of string  (** the scenario could not be replayed *)

let replay e =
  let o = Scenario.run e.e_scenario in
  match o.Scenario.o_error with
  | Some err -> Replay_error err
  | None ->
      let mine, others =
        List.partition (Dice.Signature.equal e.e_signature) o.Scenario.o_signatures
      in
      if mine <> [] then Confirmed others else Vanished o.Scenario.o_signatures

let pp_verdict ppf = function
  | Confirmed _ -> Format.pp_print_string ppf "confirmed"
  | Vanished [] -> Format.pp_print_string ppf "vanished (no signature detected)"
  | Vanished sgs ->
      Format.fprintf ppf "vanished (detected instead: %s)"
        (String.concat ", " (List.map Dice.Signature.to_string sgs))
  | Replay_error e -> Format.fprintf ppf "replay error: %s" e

let gc ~dir =
  List.filter_map
    (fun (path, r) ->
      let drop reason =
        Sys.remove path;
        Some (path, reason)
      in
      match r with
      | Error e -> drop (Printf.sprintf "invalid entry: %s" e)
      | Ok entry -> (
          match replay entry with
          | Confirmed _ -> None
          | v -> drop (Format.asprintf "%a" pp_verdict v)))
    (load ~dir)
