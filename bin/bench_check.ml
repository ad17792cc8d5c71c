(* CI regression gate: compare a fresh BENCH.json against the
   checked-in baseline and exit nonzero if any gated metric regressed
   past its noise margin.  All comparison logic (and its tests) lives
   in Benchgate.Gate; this is only argument parsing and rendering. *)

let run baseline_path fresh_path =
  let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  let load what path =
    match Benchgate.Gate.load path with
    | Ok doc -> doc
    | Error msg -> die "bench_check: cannot read %s %s: %s" what path msg
  in
  let baseline = load "baseline" baseline_path in
  let fresh = load "fresh" fresh_path in
  let verdicts = Benchgate.Gate.check ~baseline ~fresh in
  if verdicts = [] then die "bench_check: no gated metrics in %s" baseline_path;
  List.iter (fun v -> Format.printf "%a@." Benchgate.Gate.pp_verdict v) verdicts;
  let failed = List.filter (fun v -> not v.Benchgate.Gate.ok) verdicts in
  Format.printf "%d metric(s) gated, %d regression(s)@." (List.length verdicts)
    (List.length failed);
  if failed <> [] then exit 1

open Cmdliner

let baseline =
  let doc = "Checked-in BENCH.json to gate against." in
  Arg.(required & opt (some file) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let fresh =
  let doc = "Freshly measured BENCH.json." in
  Arg.(required & opt (some file) None & info [ "fresh" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "fail when BENCH.json regressed against a baseline" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Compares the gated metric families (micro ns/op, micro minor \
         words/op, the cascade analyzer throughput, time to first \
         detection per T1 row and the per-config scale results) of two \
         BENCH.json \
         files.  Each family has a noise margin sized for a shared CI \
         host; a gated metric missing from the fresh file counts as a \
         regression.  Exit status: 0 all within margin, 1 regression, \
         2 usage or parse error." ]
  in
  Cmd.v (Cmd.info "bench_check" ~version:"1.0.0" ~doc ~man)
    Term.(const run $ baseline $ fresh)

let () = exit (Cmd.eval cmd)
