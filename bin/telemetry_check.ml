(* Validate any DiCE artifact: telemetry_check FILE.

   The "schema" member of the file's first line picks the validator:
   a dice-telemetry/1 JSONL run (every line parses, the header is
   well-formed, span ids are unique, every span closes, fault span
   paths reference real spans), or one of the single-document
   artifacts — cascade report, campaign spec or report (told apart by
   their "doc" member), repair record, corpus entry (plus its embedded
   repair record, if any) and config-fuzz coverage report.  A first
   line without a schema member can only be a telemetry run with a
   broken header, so it goes to the telemetry validator, which reports
   every bad line.  Exit 0 on a valid file, 1 with the violations
   listed otherwise (an unknown schema included), 2 on bad usage. *)

module J = Telemetry.Json
module A = Telemetry.Artifact

let invalid path msgs =
  Printf.eprintf "%s: INVALID (%d problem(s))\n" path (List.length msgs);
  List.iter (fun m -> Printf.eprintf "  - %s\n" m) msgs;
  exit 1

let first_line_schema path =
  match In_channel.with_open_bin path In_channel.input_line with
  | exception Sys_error e -> invalid path [ e ]
  | None -> invalid path [ "empty file" ]
  | Some line -> (
      match Result.map (J.member "schema") (J.of_string line) with
      | Ok (Some (J.String s)) -> Some s
      | _ -> None)

let telemetry path =
  match Telemetry.Schema.validate_file path with
  | Ok stats ->
      Format.printf "%s: OK — %a@." path Telemetry.Schema.pp_stats stats;
      exit 0
  | Error msgs -> invalid path msgs

let ( let* ) = Result.bind

let corpus_entry json =
  let* _ = Triage.Corpus.validate json in
  match J.member "repair" json with
  | None | Some J.Null -> Ok ()
  | Some r -> Result.map_error (( ^ ) "repair: ") (Repair.Report.validate r)

let campaign json =
  match J.member "doc" json with
  | Some (J.String "report") -> Campaign.Report.validate json
  | _ -> Result.map ignore (Campaign.Spec.validate json)

let documents =
  [ (Cascade.Report.version, Cascade.Report.validate);
    (Campaign.Spec.schema_version, campaign);
    (Repair.Report.schema_version, Repair.Report.validate);
    (Triage.Corpus.schema_version, corpus_entry);
    (Confuzz.Report.version, Confuzz.Report.validate) ]

let () =
  match Sys.argv with
  | [| _; path |] -> (
      match first_line_schema path with
      | None -> telemetry path
      | Some s when s = Telemetry.Schema.version -> telemetry path
      | Some s -> (
          match List.assoc_opt s documents with
          | None -> invalid path [ Printf.sprintf "line 1: unknown schema %S" s ]
          | Some validate -> (
              match Result.bind (A.read_json path) validate with
              | Ok () ->
                  Printf.printf "%s: OK — %s document\n" path s;
                  exit 0
              | Error e -> invalid path [ e ])))
  | _ ->
      Printf.eprintf "usage: %s FILE\n" Sys.argv.(0);
      exit 2
