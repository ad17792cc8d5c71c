module Cov = Bgp.Clause_cov

type params = {
  p_budget : int;
  p_seed : int;
  p_guided : bool;
  p_max_stack : int;
}

let default_params = { p_budget = 60; p_seed = 1; p_guided = true; p_max_stack = 4 }

type finding = {
  f_mutations : Mutation.t list;
  f_signatures : Dice.Signature.t list;
}

type round = {
  r_index : int;
  r_mutations : Mutation.t list;
  r_new_signatures : Dice.Signature.t list;
  r_covered : int;
  r_kept : bool;
}

type result = {
  rs_params : params;
  rs_universe : int;
  rs_baseline_covered : int;
  rs_covered : int;
  rs_rounds : round list;
  rs_findings : finding list;
  rs_uncovered : Cov.point list;
}

let m_rounds = Telemetry.Metrics.counter "confuzz.rounds"
let m_kept = Telemetry.Metrics.counter "confuzz.kept"
let m_findings = Telemetry.Metrics.counter "confuzz.findings"

(* One more mutation for [parent].  Under guidance, half the draws aim
   at a random uncovered point and half explore the full catalog —
   pure exploitation would starve the mutation kinds (foreign
   origination, TE pins) that cause faults without touching uncovered
   clauses.  A parent that already carries a pin chain skips targeting
   altogether: the chain extension inside {!Mutation.random} is the
   only path to a closed dispute wheel, and a targeted detour wastes
   the visit. *)
let pin_count stack =
  List.length
    (List.filter (function Mutation.Te_pin _ -> true | _ -> false) stack)

let next_mutation rng ~guided ctx parent =
  let targeted () =
    match Cov.uncovered () with
    | [] -> None
    | pts -> Mutation.targeted ~rng ctx (Netsim.Rng.pick rng pts)
  in
  let aim = guided && pin_count parent = 0 && Netsim.Rng.chance rng 0.5 in
  match (if aim then targeted () else None) with
  | Some m -> Some m
  | None -> Mutation.random ~rng ~parent ctx

(* Parent selection: usually uniform over the kept pool, but an
   in-progress pin chain is the rarest structure in it — about a third
   of the draws resume the longest extensible chain so dispute wheels
   actually assemble within a CI-sized budget. *)
let pick_parent rng pool ~max_stack =
  let extensible s = List.length s < max_stack in
  let chains = List.filter (fun s -> pin_count s > 0 && extensible s) pool in
  match chains with
  | c :: cs when Netsim.Rng.chance rng 0.35 ->
      List.fold_left (fun a b -> if pin_count b > pin_count a then b else a) c cs
  | _ ->
      let p = Netsim.Rng.pick rng pool in
      if extensible p then p else []

let run ?(params = default_params) ~ctx ~run_mutant () =
  let rng = Netsim.Rng.create params.p_seed in
  Cov.reset ();
  List.iter (fun (node, cfg) -> Cov.register_config ~node cfg) ctx.Mutation.cx_configs;
  Cov.enable ();
  Fun.protect ~finally:Cov.disable @@ fun () ->
  let baseline_sigs = run_mutant [] in
  let baseline_covered = Cov.covered () in
  let seen = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace seen (Dice.Signature.to_string s) ()) baseline_sigs;
  let pool = ref [ [] ] in
  let best_covered = ref baseline_covered in
  let rounds = ref [] in
  let findings = ref [] in
  for i = 1 to params.p_budget do
    Telemetry.Metrics.incr m_rounds;
    let parent = pick_parent rng !pool ~max_stack:params.p_max_stack in
    (* A few attempts to extend [parent] into an applicable stack. *)
    let rec candidate tries =
      if tries = 0 then None
      else
        match next_mutation rng ~guided:params.p_guided ctx parent with
        | None -> None
        | Some m ->
            let stack = parent @ [ m ] in
            if Mutation.applies ctx stack then Some stack else candidate (tries - 1)
    in
    match candidate 8 with
    | None -> ()
    | Some stack ->
        if Sys.getenv_opt "CONFUZZ_TRACE" <> None then
          Printf.eprintf "round %d: %s\n%!" i
            (String.concat " + " (List.map Mutation.describe stack));
        let sigs = run_mutant stack in
        let fresh =
          List.filter
            (fun s ->
              let k = Dice.Signature.to_string s in
              if Hashtbl.mem seen k then false
              else begin
                Hashtbl.replace seen k ();
                true
              end)
            sigs
        in
        let covered = Cov.covered () in
        let kept = covered > !best_covered || fresh <> [] in
        if covered > !best_covered then best_covered := covered;
        if kept then begin
          Telemetry.Metrics.incr m_kept;
          pool := stack :: !pool
        end;
        if fresh <> [] then begin
          Telemetry.Metrics.add m_findings (List.length fresh);
          findings := { f_mutations = stack; f_signatures = fresh } :: !findings
        end;
        rounds :=
          { r_index = i;
            r_mutations = stack;
            r_new_signatures = fresh;
            r_covered = covered;
            r_kept = kept }
          :: !rounds
  done;
  { rs_params = params;
    rs_universe = Cov.universe_size ();
    rs_baseline_covered = baseline_covered;
    rs_covered = Cov.covered ();
    rs_rounds = List.rev !rounds;
    rs_findings = List.rev !findings;
    rs_uncovered = Cov.uncovered () }
