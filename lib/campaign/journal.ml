module J = Telemetry.Json

type status = Passed | Failed of string | Hung

let status_to_string = function
  | Passed -> "ok"
  | Failed _ -> "error"
  | Hung -> "hung"

type record =
  | Campaign of { name : string; spec_digest : string; jobs : int }
  | Scheduled of { job : int; template : string; seed : int }
  | Started of { job : int; attempt : int }
  | Verdict of {
      job : int;
      attempt : int;
      status : status;
      signatures : string list;
      cascades : string list;
      final : bool;
      wall_s : float;
    }
  | Quarantined of { template : string; step : int; strikes : int; until : int }
  | Unquarantined of { template : string; step : int }
  | Filed of { job : int; signature : string; file : string }
  | Checkpoint of { completed : int; filed : int; digest : string }
  | End of { outcome : string }

let strings l = J.List (List.map (fun s -> J.String s) l)

let to_json = function
  | Campaign { name; spec_digest; jobs } ->
      J.Obj
        [ ("rec", J.String "campaign"); ("name", J.String name);
          ("spec", J.String spec_digest); ("jobs", J.Int jobs) ]
  | Scheduled { job; template; seed } ->
      J.Obj
        [ ("rec", J.String "scheduled"); ("job", J.Int job);
          ("template", J.String template); ("seed", J.Int seed) ]
  | Started { job; attempt } ->
      J.Obj
        [ ("rec", J.String "started"); ("job", J.Int job);
          ("attempt", J.Int attempt) ]
  | Verdict { job; attempt; status; signatures; cascades; final; wall_s } ->
      let error =
        match status with Failed e -> [ ("error", J.String e) ] | _ -> []
      in
      J.Obj
        ([ ("rec", J.String "verdict"); ("job", J.Int job);
           ("attempt", J.Int attempt);
           ("status", J.String (status_to_string status)) ]
        @ error
        @ [ ("signatures", strings signatures); ("cascades", strings cascades);
            ("final", J.Bool final); ("wall_s", J.Float wall_s) ])
  | Quarantined { template; step; strikes; until } ->
      J.Obj
        [ ("rec", J.String "quarantined"); ("template", J.String template);
          ("step", J.Int step); ("strikes", J.Int strikes);
          ("until", J.Int until) ]
  | Unquarantined { template; step } ->
      J.Obj
        [ ("rec", J.String "unquarantined"); ("template", J.String template);
          ("step", J.Int step) ]
  | Filed { job; signature; file } ->
      J.Obj
        [ ("rec", J.String "filed"); ("job", J.Int job);
          ("signature", J.String signature); ("file", J.String file) ]
  | Checkpoint { completed; filed; digest } ->
      J.Obj
        [ ("rec", J.String "checkpoint"); ("completed", J.Int completed);
          ("filed", J.Int filed); ("digest", J.String digest) ]
  | End { outcome } ->
      J.Obj [ ("rec", J.String "end"); ("outcome", J.String outcome) ]

let ( let* ) = Result.bind

module A = Telemetry.Artifact

let str = A.string_field
let int = A.int_field

let of_json json =
  let* kind = str "rec" json in
  match kind with
  | "campaign" ->
      let* name = str "name" json in
      let* spec_digest = str "spec" json in
      let* jobs = int "jobs" json in
      Ok (Campaign { name; spec_digest; jobs })
  | "scheduled" ->
      let* job = int "job" json in
      let* template = str "template" json in
      let* seed = int "seed" json in
      Ok (Scheduled { job; template; seed })
  | "started" ->
      let* job = int "job" json in
      let* attempt = int "attempt" json in
      Ok (Started { job; attempt })
  | "verdict" ->
      let* job = int "job" json in
      let* attempt = int "attempt" json in
      let* status =
        let* s = str "status" json in
        match s with
        | "ok" -> Ok Passed
        | "hung" -> Ok Hung
        | "error" ->
            let e =
              match J.member "error" json with
              | Some (J.String e) -> e
              | _ -> "unknown error"
            in
            Ok (Failed e)
        | s -> Error (Printf.sprintf "unknown verdict status %S" s)
      in
      let* signatures = A.list_of A.as_string "signatures" json in
      let* cascades = A.list_of A.as_string "cascades" json in
      let* final = A.bool_field "final" json in
      let* wall_s = A.float_field "wall_s" json in
      Ok (Verdict { job; attempt; status; signatures; cascades; final; wall_s })
  | "quarantined" ->
      let* template = str "template" json in
      let* step = int "step" json in
      let* strikes = int "strikes" json in
      let* until = int "until" json in
      Ok (Quarantined { template; step; strikes; until })
  | "unquarantined" ->
      let* template = str "template" json in
      let* step = int "step" json in
      Ok (Unquarantined { template; step })
  | "filed" ->
      let* job = int "job" json in
      let* signature = str "signature" json in
      let* file = str "file" json in
      Ok (Filed { job; signature; file })
  | "checkpoint" ->
      let* completed = int "completed" json in
      let* filed = int "filed" json in
      let* digest = str "digest" json in
      Ok (Checkpoint { completed; filed; digest })
  | "end" ->
      let* outcome = str "outcome" json in
      Ok (End { outcome })
  | k -> Error (Printf.sprintf "unknown journal record %S" k)

let state_digest ~finals ~filed =
  let finals =
    List.sort compare
      (List.map (fun (j, st) -> Printf.sprintf "%d=%s" j (status_to_string st))
         finals)
  in
  let filed = List.sort String.compare filed in
  Digest.to_hex
    (Digest.string (String.concat ";" finals ^ "|" ^ String.concat ";" filed))

(* --- writer ----------------------------------------------------------- *)

type writer = { w_fd : Unix.file_descr; mutable w_closed : bool }

let open_writer ?truncate_at path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  (match truncate_at with
  | None -> ()
  | Some n ->
      (* Cut the torn tail a crash left behind so the first append
         starts on a fresh line instead of concatenating onto the
         partial record (which would read as interior corruption and
         make the journal permanently unrecoverable).  O_APPEND writes
         land at the new, truncated end. *)
      Unix.ftruncate fd n;
      Unix.fsync fd);
  { w_fd = fd; w_closed = false }

(* One line per record in a single write(2): on a local filesystem the
   O_APPEND write is atomic with respect to other appenders, and a
   kill -9 can only tear the line currently being written — exactly
   the case [read] forgives. *)
let append w record =
  if w.w_closed then invalid_arg "Journal.append: writer is closed";
  let line = J.to_string (to_json record) ^ "\n" in
  let n = String.length line in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring w.w_fd line !written (n - !written)
  done;
  Unix.fsync w.w_fd

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    try Unix.close w.w_fd with Unix.Unix_error _ -> ()
  end

(* --- reader ----------------------------------------------------------- *)

let read path =
  match A.read_file path with
  | exception Sys_error e -> Error e
  | contents ->
      let lines = String.split_on_char '\n' contents in
      let n_elems = List.length lines in
      (* Element i was newline-terminated iff something followed it in
         the split.  Only newline-terminated records are {e committed}:
         the writer emits line + '\n' in a single write, so an
         unterminated line — parseable or not — is a torn tail from a
         kill -9 mid-append.  [committed] tracks the byte offset just
         past the last committed record so resume can truncate the torn
         residue before appending. *)
      let last_nonblank =
        let last = ref (-1) in
        List.iteri (fun i l -> if String.trim l <> "" then last := i) lines;
        !last
      in
      let rec go i off acc warnings committed = function
        | [] -> Ok (List.rev acc, List.rev warnings, committed)
        | line :: rest -> (
            let terminated = i < n_elems - 1 in
            let next = off + String.length line + (if terminated then 1 else 0) in
            if String.trim line = "" then
              if i > last_nonblank then
                (* Blank residue after the last record: not committed. *)
                go (i + 1) next acc warnings committed rest
              else
                Error (Printf.sprintf "%s:%d: blank interior line" path (i + 1))
            else
              let parsed =
                match J.of_string line with
                | Error e -> Error e
                | Ok json -> of_json json
              in
              match parsed with
              | Ok r when terminated ->
                  go (i + 1) next (r :: acc) warnings next rest
              | Ok _ ->
                  (* Parses, but the '\n' never hit the disk: the append
                     was torn mid-write, so the record was never
                     committed.  Dropped like any other torn tail. *)
                  go (i + 1) next acc
                    (Printf.sprintf
                       "%s:%d: dropped unterminated final line" path (i + 1)
                    :: warnings)
                    committed rest
              | Error e when i = last_nonblank ->
                  (* Torn tail from a kill -9 mid-append: forgiven. *)
                  go (i + 1) next acc
                    (Printf.sprintf
                       "%s:%d: dropped torn final line (%s)" path (i + 1) e
                    :: warnings)
                    committed rest
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path (i + 1) e))
      in
      let* records, warnings, committed = go 0 0 [] [] 0 lines in
      (match records with
      | Campaign _ :: _ -> Ok (records, warnings, committed)
      | [] -> Error (Printf.sprintf "%s: empty journal" path)
      | _ -> Error (Printf.sprintf "%s: journal does not start with a campaign header" path))
