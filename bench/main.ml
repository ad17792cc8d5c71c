(* Benchmark and experiment entry point.

   Usage:
     dune exec bench/main.exe                         # everything cheap
     dune exec bench/main.exe -- f1 t3                # selected sections
     dune exec bench/main.exe -- micro                # micro-benchmarks only
     dune exec bench/main.exe -- par                  # exploration + BENCH.json
     dune exec bench/main.exe -- scale --config lite  # scale workload

   The scale section is opt-in (never part of the default run): lite is
   a ~2 minute CI smoke, full is the ~10 minute 1k-router headline.  An
   unknown section or config is a usage error (exit 124) that lists the
   valid names. *)

let sections =
  [ ("f1", Experiments.f1); ("f2", Experiments.f2); ("t1", Experiments.t1);
    ("t2", Experiments.t2); ("t3", Experiments.t3); ("t4", Experiments.t4);
    ("t5", Experiments.t5); ("t6", Experiments.t6);
    ("micro", Micro.run); ("par", Par.run); ("cascade", Cascade_bench.run) ]

(* A requested section is [Some f], or [None] for scale, which needs the
   config. *)
let run requested config =
  let requested =
    match requested with
    | [] -> List.map (fun (_, f) -> Some f) sections
    | l -> l
  in
  List.iter (function Some f -> f () | None -> Scale.run config) requested

open Cmdliner

let cmd =
  let section =
    let names =
      List.map (fun (name, f) -> (name, Some f)) sections @ [ ("scale", None) ]
    in
    let doc =
      Printf.sprintf
        "Sections to run, in order: %s.  None runs every section but scale."
        (String.concat ", " (List.map fst names))
    in
    Arg.(value & pos_all (enum names) [] & info [] ~docv:"SECTION" ~doc)
  in
  let config =
    let configs = List.map (fun c -> (c.Scale.c_name, c)) Scale.configs in
    let doc =
      Printf.sprintf "Scale workload for the scale section: %s."
        (String.concat ", " (List.map fst configs))
    in
    Arg.(value & opt (enum configs) (List.assoc "lite" configs)
         & info [ "config" ] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "main" ~doc:"DiCE benchmarks and paper experiments")
    Term.(const run $ section $ config)

let () = exit (Cmd.eval cmd)
