module Json = Telemetry.Json

type direction = Lower_is_better | Higher_is_better
type matcher = Prefix of string | Suffix of string

(* [ratio] is the allowed multiplicative drift ([fresh <= base * ratio]
   for lower-is-better, [fresh >= base / ratio] for higher); [slack] is
   absolute grace on top, so near-zero baselines don't gate on
   measurement dust. *)
type rule = {
  sel : matcher;
  dir : direction;
  ratio : float;
  slack : float;
}

(* Margins are sized for a noisy shared host measuring with
   min-of-passes: sub-microsecond micro benches have been observed 2.5x
   off on a loaded 1-core box even after min-of-3, so they get 2.0x —
   still strictly below the pre-optimization hot-path costs, which is
   the regression the gate exists to catch.  Coarser wall-clock
   families get ~1.6-2x, allocation counts are near-deterministic and
   get a tight 1.25x.  Time to first detection is deterministic apart
   from its wall time: detected, rounds, inputs and simulated latency
   may not get worse at all, wall time gets the deploy margin.  Suffix
   rules come first so they beat the family catch-alls. *)
let rules =
  [ { sel = Suffix ".detected"; dir = Higher_is_better; ratio = 1.0; slack = 0. };
    { sel = Suffix ".rounds"; dir = Lower_is_better; ratio = 1.0; slack = 0. };
    { sel = Suffix ".inputs"; dir = Lower_is_better; ratio = 1.0; slack = 0. };
    { sel = Suffix ".sim_latency_us"; dir = Lower_is_better; ratio = 1.0; slack = 0. };
    { sel = Suffix ".wall_s"; dir = Lower_is_better; ratio = 2.0; slack = 1. };
    { sel = Suffix ".records_per_s"; dir = Higher_is_better; ratio = 2.0; slack = 0. };
    { sel = Suffix ".shadows_per_s"; dir = Higher_is_better; ratio = 1.6; slack = 0.5 };
    { sel = Suffix ".updates_per_s"; dir = Higher_is_better; ratio = 1.6; slack = 0. };
    { sel = Suffix ".peak_rss_mb"; dir = Lower_is_better; ratio = 1.5; slack = 32. };
    { sel = Suffix ".deploy_s"; dir = Lower_is_better; ratio = 2.0; slack = 1. };
    { sel = Suffix ".converge_s"; dir = Lower_is_better; ratio = 1.8; slack = 2. };
    { sel = Suffix ".fill_s"; dir = Lower_is_better; ratio = 1.8; slack = 1. };
    { sel = Suffix ".lpm_ns"; dir = Lower_is_better; ratio = 1.6; slack = 100. };
    { sel = Suffix ".update_ns"; dir = Lower_is_better; ratio = 1.6; slack = 500. };
    { sel = Suffix ".update_minor_words"; dir = Lower_is_better; ratio = 1.25;
      slack = 16. };
    { sel = Prefix "micro_ns_per_op."; dir = Lower_is_better; ratio = 2.0; slack = 50. };
    { sel = Prefix "micro_minor_words_per_op."; dir = Lower_is_better; ratio = 1.25;
      slack = 8. } ]

type verdict = {
  metric : string;
  base : float;
  fresh : float option;
  limit : float;
  dir : direction;
  ok : bool;
}

let matches metric = function
  | Prefix p -> String.starts_with ~prefix:p metric
  | Suffix s -> String.ends_with ~suffix:s metric

let rule_for metric = List.find_opt (fun r -> matches metric r.sel) rules

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | Json.Bool b -> Some (if b then 1. else 0.)
  | Json.Null | Json.String _ | Json.List _ | Json.Obj _ -> None

(* The gated families.  [micro_*] maps are one level deep (benchmark
   names contain '/', not nesting); [cascade] is a flat metric map;
   [detection] is row -> metric and [scale] is config -> metric. *)
let metrics doc =
  let field name =
    match doc with
    | Json.Obj fields -> (
        match List.assoc_opt name fields with Some (Json.Obj f) -> f | _ -> [])
    | _ -> []
  in
  let flat prefix =
    List.filter_map (fun (k, v) ->
        Option.map (fun x -> (prefix ^ "." ^ k, x)) (number v))
  in
  let nested family =
    List.concat_map
      (fun (key, v) ->
        match v with
        | Json.Obj inner -> flat (family ^ "." ^ key) inner
        | _ -> [])
      (field family)
  in
  flat "micro_ns_per_op" (field "micro_ns_per_op")
  @ flat "micro_minor_words_per_op" (field "micro_minor_words_per_op")
  @ flat "cascade" (field "cascade")
  @ nested "detection" @ nested "scale"

let judge (rule : rule) ~base ~fresh =
  match rule.dir with
  | Lower_is_better ->
      let limit = (base *. rule.ratio) +. rule.slack in
      (limit, (match fresh with Some f -> f <= limit | None -> false))
  | Higher_is_better ->
      let limit = Float.max 0. ((base /. rule.ratio) -. rule.slack) in
      (limit, (match fresh with Some f -> f >= limit | None -> false))

let check ~baseline ~fresh =
  let fresh_metrics = metrics fresh in
  List.filter_map
    (fun (metric, base) ->
      match rule_for metric with
      | None -> None
      | Some rule ->
          let fresh = List.assoc_opt metric fresh_metrics in
          let limit, ok = judge rule ~base ~fresh in
          Some { metric; base; fresh; limit; dir = rule.dir; ok })
    (metrics baseline)

let all_ok = List.for_all (fun v -> v.ok)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Json.of_string s

let pp_verdict ppf v =
  let bound = match v.dir with
    | Lower_is_better -> "<="
    | Higher_is_better -> ">="
  in
  Format.fprintf ppf "%-5s %-55s base %12.2f  fresh %12s  (need %s %.2f)"
    (if v.ok then "ok" else "FAIL")
    v.metric v.base
    (match v.fresh with Some f -> Printf.sprintf "%.2f" f | None -> "missing")
    bound v.limit
