module J = Telemetry.Json

let version = "dice-confuzz-cov/1"

let curve (r : Loop.result) =
  List.map (fun (rd : Loop.round) -> J.Int rd.Loop.r_covered) r.Loop.rs_rounds

let arm_to_json (r : Loop.result) =
  let p = r.Loop.rs_params in
  J.Obj
    [ ("budget", J.Int p.Loop.p_budget);
      ("seed", J.Int p.Loop.p_seed);
      ("guided", J.Bool p.Loop.p_guided);
      ("universe", J.Int r.Loop.rs_universe);
      ("baseline_covered", J.Int r.Loop.rs_baseline_covered);
      ("covered", J.Int r.Loop.rs_covered);
      ("curve", J.List (curve r));
      ("kept",
       J.Int (List.length (List.filter (fun (rd : Loop.round) -> rd.Loop.r_kept) r.Loop.rs_rounds)));
      ("findings", J.Int (List.length r.Loop.rs_findings));
      ("uncovered",
       J.List (List.map (fun pt -> J.String (Bgp.Clause_cov.id_of pt)) r.Loop.rs_uncovered)) ]

let to_json ~guided ?random () =
  J.Obj
    [ ("schema", J.String version);
      ("guided", arm_to_json guided);
      ("random", (match random with Some r -> arm_to_json r | None -> J.Null)) ]

module A = Telemetry.Artifact

let ( let* ) = Result.bind

let validate_arm arm =
  let* universe = A.int_field "universe" arm in
  let* covered = A.int_field "covered" arm in
  let* _ =
    A.map_result
      (fun k -> A.int_field k arm)
      [ "budget"; "seed"; "baseline_covered"; "kept"; "findings" ]
  in
  let* _ = A.bool_field "guided" arm in
  let* _ = A.list_of A.as_int "curve" arm in
  let* _ = A.list_of A.as_string "uncovered" arm in
  if covered > universe then Error "covered exceeds universe" else Ok ()

let validate json =
  let* () = A.check_schema version json in
  let* guided = A.field "guided" json in
  let* () = Result.map_error (( ^ ) "guided: ") (validate_arm guided) in
  match A.opt_field "random" json with
  | None -> Ok ()
  | Some arm -> Result.map_error (( ^ ) "random: ") (validate_arm arm)

let pp_arm ppf name (r : Loop.result) =
  Format.fprintf ppf "%s: coverage %d/%d -> %d/%d, %d finding(s) in %d round(s)@ "
    name r.Loop.rs_baseline_covered r.Loop.rs_universe r.Loop.rs_covered
    r.Loop.rs_universe
    (List.length r.Loop.rs_findings)
    (List.length r.Loop.rs_rounds)

let pp_summary ppf ~guided ?random () =
  Format.fprintf ppf "@[<v>";
  pp_arm ppf "guided" guided;
  Option.iter (pp_arm ppf "random") random;
  Format.fprintf ppf "@]"
