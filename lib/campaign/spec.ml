module J = Telemetry.Json

let schema_version = "dice-campaign/1"

type template = {
  t_name : string;
  t_seeds : int list;
  t_scenario : Triage.Scenario.t;
}

type t = {
  c_name : string;
  c_templates : template list;
  c_scenario_budget_s : float;
  c_budget_s : float option;
  c_retries : int;
  c_max_strikes : int;
  c_backoff : int;
  c_checkpoint_every : int;
}

(* Clamped to the same bounds [validate] enforces on JSON input: a
   programmatic caller passing [checkpoint_every <= 0] would otherwise
   divide by zero at the driver's checkpoint cadence, and negative
   [retries] would silently shrink max_attempts below one. *)
let make ?(scenario_budget_s = 60.) ?(retries = 1) ?(max_strikes = 2) ?(backoff = 2)
    ?(checkpoint_every = 8) ~name templates =
  { c_name = name; c_templates = templates;
    c_scenario_budget_s = scenario_budget_s; c_budget_s = None;
    c_retries = max 0 retries; c_max_strikes = max 1 max_strikes;
    c_backoff = max 1 backoff; c_checkpoint_every = max 1 checkpoint_every }

type job = {
  j_id : int;
  j_template : string;
  j_seed : int;
  j_scenario : Triage.Scenario.t;
}

let jobs spec =
  let next = ref 0 in
  List.concat_map
    (fun tpl ->
      List.map
        (fun seed ->
          let id = !next in
          incr next;
          { j_id = id; j_template = tpl.t_name; j_seed = seed;
            j_scenario = Triage.Scenario.with_seed seed tpl.t_scenario })
        tpl.t_seeds)
    spec.c_templates

let template_to_json tpl =
  J.Obj
    [ ("name", J.String tpl.t_name);
      ("seeds", J.List (List.map (fun s -> J.Int s) tpl.t_seeds));
      ("scenario", Triage.Scenario.to_json tpl.t_scenario) ]

let to_json spec =
  J.Obj
    [ ("schema", J.String schema_version);
      ("doc", J.String "spec");
      ("name", J.String spec.c_name);
      ("scenario_budget_sec", J.Float spec.c_scenario_budget_s);
      ( "budget_sec",
        match spec.c_budget_s with None -> J.Null | Some b -> J.Float b );
      ("retries", J.Int spec.c_retries);
      ("max_strikes", J.Int spec.c_max_strikes);
      ("backoff", J.Int spec.c_backoff);
      ("checkpoint_every", J.Int spec.c_checkpoint_every);
      ("templates", J.List (List.map template_to_json spec.c_templates)) ]

let digest spec = Digest.to_hex (Digest.string (J.to_string (to_json spec)))

(* --- validation ------------------------------------------------------- *)

let ( let* ) = Result.bind

module A = Telemetry.Artifact

(* An absent (or null) knob takes its default. *)
let with_default decode ~default name json =
  match A.opt_field name json with
  | None -> Ok default
  | Some _ -> decode name json

let int_field = with_default A.int_field
let float_field = with_default A.float_field

(* Seed sweeps come in two spellings: an explicit list, or a compact
   range object for wide sweeps. *)
let seeds_of_json = function
  | J.List l ->
      let* seeds = A.map_result A.as_int l in
      if seeds = [] then Error "seeds list is empty" else Ok seeds
  | J.Obj _ as o ->
      let* from = int_field ~default:0 "from" o in
      let* count = A.int_field "count" o in
      if count <= 0 then Error "seed range \"count\" must be positive"
      else Ok (List.init count (fun i -> from + i))
  | _ -> Error "\"seeds\" must be a list of integers or a {from, count} range"

let template_of_json json =
  let* name = A.string_field "name" json in
  Result.map_error (Printf.sprintf "template %S: %s" name)
    (let* seeds = Result.bind (A.field "seeds" json) seeds_of_json in
     let* scenario = Result.bind (A.field "scenario" json) Triage.Scenario.of_json in
     Ok { t_name = name; t_seeds = seeds; t_scenario = scenario })

let validate json =
  let* () = A.check_schema schema_version json in
  let* () =
    match J.member "doc" json with
    | None | Some (J.String "spec") -> Ok ()
    | Some (J.String d) ->
        Error (Printf.sprintf "document is a %S, not a campaign spec" d)
    | Some _ -> Error "field \"doc\" must be a string"
  in
  let* name = A.string_field "name" json in
  let* scenario_budget_s = float_field ~default:60. "scenario_budget_sec" json in
  let* budget_s =
    match A.opt_field "budget_sec" json with
    | None -> Ok None
    | Some b -> Result.map Option.some (A.as_float b)
  in
  let* retries = int_field ~default:1 "retries" json in
  let* max_strikes = int_field ~default:2 "max_strikes" json in
  let* backoff = int_field ~default:2 "backoff" json in
  let* checkpoint_every = int_field ~default:8 "checkpoint_every" json in
  let* () =
    if retries < 0 then Error "\"retries\" must be >= 0"
    else if max_strikes < 1 then Error "\"max_strikes\" must be >= 1"
    else if backoff < 1 then Error "\"backoff\" must be >= 1"
    else if checkpoint_every < 1 then Error "\"checkpoint_every\" must be >= 1"
    else Ok ()
  in
  let* templates =
    Result.bind (A.list_field "templates" json) (A.map_result template_of_json)
  in
  let* () = if templates = [] then Error "campaign has no templates" else Ok () in
  let* () =
    let names = List.map (fun t -> t.t_name) templates in
    let dup =
      List.find_opt
        (fun n -> List.length (List.filter (String.equal n) names) > 1)
        names
    in
    match dup with
    | Some n -> Error (Printf.sprintf "duplicate template name %S" n)
    | None -> Ok ()
  in
  Ok
    { c_name = name; c_templates = templates;
      c_scenario_budget_s = scenario_budget_s; c_budget_s = budget_s;
      c_retries = retries; c_max_strikes = max_strikes; c_backoff = backoff;
      c_checkpoint_every = checkpoint_every }

let of_string s =
  let* json = J.of_string s in
  validate json

let load path =
  let* json = A.read_json path in
  Result.map_error (Printf.sprintf "%s: %s" path) (validate json)

(* Atomic: resume reloads this file, so a kill -9 during [save] must
   not be able to leave a torn spec.json behind. *)
let save ~path spec = A.write_json ~path (to_json spec)
