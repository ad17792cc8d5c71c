module J = Telemetry.Json

type result_t = {
  r_report : Report.t;
  r_total : int;
  r_completed : int;
  r_executed : int;
  r_replayed : int;
  r_filed : string list;
  r_warnings : string list;
}

let ( let* ) = Result.bind

let m_ok = Telemetry.Metrics.counter "campaign.jobs_ok"
let m_error = Telemetry.Metrics.counter "campaign.jobs_error"
let m_hung = Telemetry.Metrics.counter "campaign.jobs_hung"
let m_replayed = Telemetry.Metrics.counter "campaign.jobs_replayed"
let m_retries = Telemetry.Metrics.counter "campaign.retries"
let m_quarantines = Telemetry.Metrics.counter "campaign.quarantines"
let m_filed = Telemetry.Metrics.counter "campaign.filed"

let journal_file dir = Filename.concat dir "journal.jsonl"
let spec_file dir = Filename.concat dir "spec.json"
let report_file dir = Filename.concat dir "report.json"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let is_ok = function Journal.Passed -> true | Journal.Failed _ | Journal.Hung -> false

(* --- journal replay --------------------------------------------------- *)

type replay = {
  rp_finals :
    (int, Journal.status * string list * string list * int) Hashtbl.t;
      (** job -> (status, signatures, cascades, attempts) *)
  rp_attempts : (int, int) Hashtbl.t;  (** job -> failed non-final attempts *)
  rp_filed : (string, string) Hashtbl.t;  (** signature -> corpus file *)
  rp_parked : (string, int) Hashtbl.t;  (** template -> unreleased parks *)
}

let empty_replay () =
  { rp_finals = Hashtbl.create 64; rp_attempts = Hashtbl.create 16;
    rp_filed = Hashtbl.create 16; rp_parked = Hashtbl.create 8 }

(* Rebuild the replay state while verifying every checkpoint against the
   records before it: a checkpoint whose digest disagrees means the
   journal is internally inconsistent (interleaved writers, manual
   edits), which resume must refuse rather than silently continue. *)
let replay_of_records records =
  let rp = empty_replay () in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        match r with
        | Journal.Verdict { job; attempt; status; signatures; cascades; final; _ }
          ->
            if final then
              Hashtbl.replace rp.rp_finals job (status, signatures, cascades, attempt)
            else
              Hashtbl.replace rp.rp_attempts job
                (max attempt
                   (Option.value ~default:0 (Hashtbl.find_opt rp.rp_attempts job)));
            Ok ()
        | Journal.Filed { signature; file; _ } ->
            if not (Hashtbl.mem rp.rp_filed signature) then
              Hashtbl.add rp.rp_filed signature file;
            Ok ()
        | Journal.Quarantined { template; _ } ->
            Hashtbl.replace rp.rp_parked template
              (1 + Option.value ~default:0 (Hashtbl.find_opt rp.rp_parked template));
            Ok ()
        | Journal.Unquarantined { template; _ } ->
            Hashtbl.replace rp.rp_parked template
              (max 0
                 (Option.value ~default:0 (Hashtbl.find_opt rp.rp_parked template)
                 - 1));
            Ok ()
        | Journal.Checkpoint { completed; filed; digest } ->
            let finals =
              Hashtbl.fold (fun j (st, _, _, _) acc -> (j, st) :: acc)
                rp.rp_finals []
            in
            let filed_l = Hashtbl.fold (fun s _ acc -> s :: acc) rp.rp_filed [] in
            if
              List.length finals = completed
              && List.length filed_l = filed
              && String.equal digest
                   (Journal.state_digest ~finals ~filed:filed_l)
            then Ok ()
            else Error "journal checkpoint mismatch: journal is inconsistent"
        | Journal.Campaign _ | Journal.Scheduled _ | Journal.Started _
        | Journal.End _ ->
            Ok ())
      (Ok ()) records
  in
  Ok rp

(* --- the driver ------------------------------------------------------- *)

let drive ?runner ?(log = ignore) ?crash_after ?corpus_dir ~dir ~writer
    ~spec ~replay ~warnings () =
  let runner = Option.value ~default:Triage.Scenario.run runner in
  let corpus_dir =
    Option.value ~default:(Filename.concat dir "corpus") corpus_dir
  in
  let spec_digest = Spec.digest spec in
  let jobs = Spec.jobs spec in
  let total = List.length jobs in
  let templates =
    Array.of_list (List.map (fun t -> t.Spec.t_name) spec.Spec.c_templates)
  in
  let n = Array.length templates in
  let tindex name =
    let rec go i = if String.equal templates.(i) name then i else go (i + 1) in
    go 0
  in
  let queues = Array.make n [] in
  List.iter
    (fun (j : Spec.job) ->
      let ti = tindex j.j_template in
      queues.(ti) <- j :: queues.(ti))
    jobs;
  Array.iteri (fun i q -> queues.(i) <- List.rev q) queues;
  let strikes =
    Dice.Supervise.create ~max_strikes:spec.Spec.c_max_strikes
      ~backoff:spec.Spec.c_backoff n
  in
  (* Quarantine records are advisory (replay never reads them back);
     [announce] tracks which parks still owe an unquarantine line so a
     resumed journal stays readable without duplicating records. *)
  let announce =
    Array.init n (fun i ->
        Option.value ~default:0 (Hashtbl.find_opt replay.rp_parked templates.(i))
        > 0)
  in
  let quarantine_counts = Array.make n 0 in
  let finals : Report.job_final option array = Array.make total None in
  let filed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun sg _ -> Hashtbl.replace filed sg ()) replay.rp_filed;
  let filed_now = ref [] in
  let step = ref 0 and cursor = ref 0 in
  let completed = ref 0 and executed = ref 0 and replayed = ref 0 in
  let live_finals = ref 0 in
  let t_start = Unix.gettimeofday () in
  let out_of_time () =
    match spec.Spec.c_budget_s with
    | None -> false
    | Some b -> Unix.gettimeofday () -. t_start > b
  in
  let max_attempts = 1 + spec.Spec.c_retries in
  (* One attempt: journal [started], run the scenario on a worker domain
     under the watchdog, absorb exceptions into an [error] status.  The
     per-job online cascade monitor runs inside the job body so its
     roots land in the journaled verdict — which is what makes the
     health gate deterministic under resume. *)
  let execute (job : Spec.job) attempt =
    Journal.append writer (Journal.Started { job = job.j_id; attempt });
    let body () =
      match
        Cascade.Online.with_monitor (fun mon ->
            let o = runner job.j_scenario in
            let roots =
              List.sort_uniq String.compare
                (List.map Dice.Fault.root (Cascade.Online.probe mon))
            in
            (o, roots))
      with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    let t0 = Unix.gettimeofday () in
    let res =
      Telemetry.with_span "campaign.job"
        ~attrs:
          [ ("job", J.Int job.j_id); ("template", J.String job.j_template);
            ("seed", J.Int job.j_seed); ("attempt", J.Int attempt) ]
        (fun _ ->
          if spec.Spec.c_scenario_budget_s > 0. then
            Parallel.Pool.await_timeout (Parallel.Pool.submit body)
              ~timeout_s:spec.Spec.c_scenario_budget_s
          else Some (body ()))
    in
    let wall = Unix.gettimeofday () -. t0 in
    match res with
    | None ->
        (* The worker domain is wedged on the abandoned job and leaked;
           the next job runs on a fresh one. *)
        (Journal.Hung, [], [], wall)
    | Some (Error e) -> (Journal.Failed e, [], [], wall)
    | Some (Ok (o, roots)) -> (
        let sigs =
          List.sort_uniq String.compare
            (List.map Dice.Signature.to_string
               o.Triage.Scenario.o_signatures)
        in
        match o.Triage.Scenario.o_error with
        | Some e -> (Journal.Failed e, sigs, roots, wall)
        | None -> (Journal.Passed, sigs, roots, wall))
  in
  let run_job (job : Spec.job) =
    let start_at =
      1 + Option.value ~default:0 (Hashtbl.find_opt replay.rp_attempts job.j_id)
    in
    let rec attempt k =
      let status, sigs, roots, wall = execute job k in
      let final = is_ok status || k >= max_attempts in
      Journal.append writer
        (Journal.Verdict
           { job = job.j_id; attempt = k; status; signatures = sigs;
             cascades = roots; final; wall_s = wall });
      (match status with
      | Journal.Passed -> Telemetry.Metrics.incr m_ok
      | Journal.Failed _ -> Telemetry.Metrics.incr m_error
      | Journal.Hung -> Telemetry.Metrics.incr m_hung);
      if final then begin
        incr live_finals;
        (match crash_after with
        | Some limit when !live_finals >= limit ->
            (* Simulated kill -9 for the CI smoke: no cleanup, no
               buffered writes, not even at_exit handlers. *)
            Unix._exit 137
        | _ -> ());
        (status, sigs, roots, k)
      end
      else begin
        Telemetry.Metrics.incr m_retries;
        log
          (Printf.sprintf "job %d (%s seed %d): attempt %d %s; retrying"
             job.j_id job.j_template job.j_seed k
             (Journal.status_to_string status));
        attempt (k + 1)
      end
    in
    attempt start_at
  in
  let file_signatures (job : Spec.job) sigs =
    List.iter
      (fun sg_str ->
        if not (Hashtbl.mem filed sg_str) then
          match Dice.Signature.of_string sg_str with
          | Error e ->
              log
                (Printf.sprintf "job %d: cannot file signature %S: %s"
                   job.j_id sg_str e)
          | Ok sg ->
              ignore (Triage.Corpus.add ~dir:corpus_dir sg job.j_scenario);
              let file = Triage.Corpus.filename_of sg in
              Journal.append writer
                (Journal.Filed { job = job.j_id; signature = sg_str; file });
              Hashtbl.replace filed sg_str ();
              filed_now := sg_str :: !filed_now;
              Telemetry.Metrics.incr m_filed;
              log
                (Printf.sprintf "job %d (%s seed %d): filed %s" job.j_id
                   job.j_template job.j_seed file))
      sigs
  in
  let checkpoint () =
    let finals_l =
      Array.to_list finals
      |> List.filter_map
           (Option.map (fun f -> (f.Report.f_job, f.Report.f_status)))
    in
    let filed_l = Hashtbl.fold (fun s _ acc -> s :: acc) filed [] in
    Journal.append writer
      (Journal.Checkpoint
         { completed = List.length finals_l; filed = List.length filed_l;
           digest = Journal.state_digest ~finals:finals_l ~filed:filed_l })
  in
  let record_final (job : Spec.job) ti status sigs roots attempts ~live =
    finals.(job.j_id) <-
      Some
        { Report.f_job = job.j_id; f_template = job.j_template;
          f_seed = job.j_seed; f_status = status; f_attempts = attempts;
          f_signatures = sigs; f_cascades = roots };
    incr completed;
    (match
       Dice.Supervise.record strikes ~slot:ti ~step:!step ~ok:(is_ok status)
     with
    | None -> ()
    | Some q ->
        Telemetry.Metrics.incr m_quarantines;
        quarantine_counts.(ti) <- quarantine_counts.(ti) + 1;
        if live then begin
          announce.(ti) <- true;
          Journal.append writer
            (Journal.Quarantined
               { template = templates.(ti); step = q.Dice.Supervise.qu_step;
                 strikes = q.Dice.Supervise.qu_strikes;
                 until = q.Dice.Supervise.qu_until });
          log
            (Printf.sprintf
               "template %s quarantined until step %d (%d strikes)"
               templates.(ti) q.Dice.Supervise.qu_until
               q.Dice.Supervise.qu_strikes)
        end);
    incr step;
    file_signatures job sigs;
    if live && !live_finals mod spec.Spec.c_checkpoint_every = 0 then
      checkpoint ()
  in
  Telemetry.with_span "campaign"
    ~attrs:[ ("name", J.String spec.Spec.c_name); ("jobs", J.Int total) ]
    (fun _ ->
      let remaining = ref total in
      while !remaining > 0 do
        List.iter
          (fun slot ->
            if announce.(slot) then begin
              announce.(slot) <- false;
              Journal.append writer
                (Journal.Unquarantined
                   { template = templates.(slot); step = !step })
            end)
          (Dice.Supervise.release_due strikes ~step:!step);
        let picked = ref None in
        let i = ref 0 in
        while !picked = None && !i < n do
          let ti = (!cursor + !i) mod n in
          (match queues.(ti) with
          | [] -> ()
          | job :: rest ->
              if not (Dice.Supervise.quarantined strikes ~slot:ti ~step:!step)
              then begin
                queues.(ti) <- rest;
                cursor := (ti + 1) mod n;
                picked := Some (job, ti)
              end);
          incr i
        done;
        match !picked with
        | None ->
            (* Every template with work left is parked: idle steps tick
               the clock so backoffs expire. *)
            incr step
        | Some (job, ti) -> (
            decr remaining;
            match Hashtbl.find_opt replay.rp_finals job.Spec.j_id with
            | Some (status, sigs, roots, attempts) ->
                incr replayed;
                Telemetry.Metrics.incr m_replayed;
                record_final job ti status sigs roots attempts ~live:false
            | None ->
                if out_of_time () then
                  log
                    (Printf.sprintf
                       "campaign budget exhausted; skipping job %d (%s seed %d)"
                       job.Spec.j_id job.Spec.j_template job.Spec.j_seed)
                else begin
                  incr executed;
                  let status, sigs, roots, attempts = run_job job in
                  record_final job ti status sigs roots attempts ~live:true
                end)
      done);
  let finals_l = Array.to_list finals |> List.filter_map Fun.id in
  let quarantines =
    Array.to_list (Array.mapi (fun i c -> (templates.(i), c)) quarantine_counts)
  in
  let filed_all = Hashtbl.fold (fun s _ acc -> s :: acc) filed [] in
  let report =
    Report.build ~name:spec.Spec.c_name ~spec_digest
      ~templates:(Array.to_list templates) ~total ~finals:finals_l
      ~quarantines ~filed:filed_all
  in
  Journal.append writer (Journal.End { outcome = report.Report.r_outcome });
  (* Atomic: a campaign killed mid-write leaves the previous report or
     the new one, never a torn report.json. *)
  Telemetry.Artifact.write_json ~path:(report_file dir) report.Report.r_json;
  { r_report = report; r_total = total; r_completed = !completed;
    r_executed = !executed; r_replayed = !replayed;
    r_filed = List.rev !filed_now; r_warnings = warnings }

(* --- entry points ----------------------------------------------------- *)

let start ?runner ?log ?crash_after ?corpus_dir ~dir spec =
  if Sys.file_exists (journal_file dir) then
    Error
      (Printf.sprintf "%s already contains a campaign journal; use resume" dir)
  else begin
    mkdir_p dir;
    Spec.save ~path:(spec_file dir) spec;
    let writer = Journal.open_writer (journal_file dir) in
    (* Make the creations of spec.json and journal.jsonl durable: the
       appends below fsync the journal's {e contents}, but without a
       directory fsync a power cut could leave the fully-fsync'd file
       missing from the directory altogether. *)
    Telemetry.Artifact.fsync_dir dir;
    Fun.protect ~finally:(fun () -> Journal.close writer) (fun () ->
        let jobs = Spec.jobs spec in
        Journal.append writer
          (Journal.Campaign
             { name = spec.Spec.c_name; spec_digest = Spec.digest spec;
               jobs = List.length jobs });
        List.iter
          (fun (j : Spec.job) ->
            Journal.append writer
              (Journal.Scheduled
                 { job = j.j_id; template = j.j_template; seed = j.j_seed }))
          jobs;
        Ok
          (drive ?runner ?log ?crash_after ?corpus_dir ~dir ~writer ~spec
             ~replay:(empty_replay ()) ~warnings:[] ()))
  end

let resume ?runner ?log ?crash_after ?corpus_dir ~dir () =
  let* spec = Spec.load (spec_file dir) in
  let* records, warnings, committed = Journal.read (journal_file dir) in
  let* () =
    match records with
    | Journal.Campaign { spec_digest; jobs; _ } :: _ ->
        if not (String.equal spec_digest (Spec.digest spec)) then
          Error
            (Printf.sprintf
               "%s: spec.json does not match the journal's spec digest" dir)
        else if jobs <> List.length (Spec.jobs spec) then
          Error (Printf.sprintf "%s: journal job count disagrees with spec" dir)
        else Ok ()
    | _ -> Error (Printf.sprintf "%s: journal has no campaign header" dir)
  in
  let* replay = replay_of_records records in
  (* [committed] stops at the last newline-terminated record: opening
     with [truncate_at] cuts any torn tail the kill left, so the first
     append starts a fresh line instead of concatenating onto the
     partial one — which would make every later read (a second crash +
     resume, auto-resume from the demo) fail as interior corruption. *)
  let writer = Journal.open_writer ~truncate_at:committed (journal_file dir) in
  Fun.protect ~finally:(fun () -> Journal.close writer) (fun () ->
      Ok
        (drive ?runner ?log ?crash_after ?corpus_dir ~dir ~writer ~spec
           ~replay ~warnings ()))

let print_start ~dir (spec : Spec.t) =
  Printf.printf "campaign %S: %d template(s), %d job(s) -> %s\n" spec.Spec.c_name
    (List.length spec.Spec.c_templates)
    (List.length (Spec.jobs spec))
    dir

let print_result ~dir r =
  List.iter (fun w -> Printf.eprintf "warning: %s\n" w) r.r_warnings;
  Printf.printf
    "campaign %s: %d/%d job(s) complete (%d executed, %d replayed), %d \
     signature(s) filed\n"
    r.r_report.Report.r_outcome r.r_completed r.r_total r.r_executed r.r_replayed
    (List.length r.r_filed);
  List.iter (fun sg -> Printf.printf "  filed %s\n" sg) r.r_filed;
  Printf.printf "report: %s\n" (report_file dir);
  if r.r_report.Report.r_gate_failed then begin
    Printf.printf "health gate FAILED: self-sustaining failure(s) observed\n";
    1
  end
  else 0
