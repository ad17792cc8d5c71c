(* Standalone differential fuzzer for the BGP wire codec.

   Two corpora per run:
   - raw random byte strings (envelope fuzzing);
   - valid encoded messages corrupted by every {!Netsim.Mangler} corpus
     kind (structured fuzzing: reaches deep attribute parsing that raw
     bytes almost never frame correctly).

   The contract under test is totality: [Bgp.Wire.decode] must return
   [Ok] or [Error] on every input — any escaped exception, and any
   reserved codec-crash error report, is a decoder bug.  Failing
   buffers are byte-minimized with the triage delta debugger and filed
   into a dice-corpus/1 directory (one entry per stable signature, the
   same schema the orchestrated triage pipeline writes), so
   [dice_triage replay CORPUS_DIR] reproduces them; the process exits
   nonzero so CI can archive the corpus.

   Usage: fuzz_wire [CASES [SEED [CORPUS_DIR]]]   (also --budget/--seed/--corpus)
   Defaults: 10000 cases, seed 1, corpus dir "fuzz-corpus".  Exit 0 when
   decoding is total, 1 when failures were filed, 124 on a usage error. *)

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

let failures : (string * string) list ref = ref []

let record ~why buf = failures := (why, buf) :: !failures

let classify buf =
  match Bgp.Wire.decode buf with
  | Ok _ -> ()
  | Error e when Bgp.Wire.is_codec_crash e ->
      record ~why:("codec-crash: " ^ e.Bgp.Wire.reason) buf
  | Error _ -> ()
  | exception exn -> record ~why:("escaped: " ^ Printexc.to_string exn) buf

let random_bytes rng =
  let len = Netsim.Rng.int rng 96 in
  String.init len (fun _ -> Char.chr (Netsim.Rng.int rng 256))

(* A pool of well-formed messages to corrupt: every message type, plus
   UPDATEs with withdrawn routes, unknown attributes and fat paths. *)
let seed_messages =
  let ip = Bgp.Ipv4.of_string_exn in
  let p = Bgp.Prefix.of_string_exn in
  let attrs ?unknown path =
    Bgp.Attr.make ~origin:Bgp.Attr.Igp
      ~as_path:[ Bgp.As_path.Seq path ]
      ?unknown ~next_hop:(ip "10.0.0.1") ()
  in
  [ Bgp.Msg.Keepalive;
    Bgp.Msg.Open { version = 4; my_as = 65001; hold_time = 90; bgp_id = ip "10.0.0.1" };
    Bgp.Msg.Notification { code = 6; subcode = 0; data = "cease" };
    Bgp.Msg.Update { withdrawn = []; attrs = Some (attrs [ 65001 ]); nlri = [ p "192.0.2.0/24" ] };
    Bgp.Msg.Update
      { withdrawn = [ p "198.51.100.0/24" ];
        attrs = Some (attrs [ 65001; 65002; 65003 ]);
        nlri = [ p "192.0.2.0/25"; p "192.0.2.128/25" ] };
    Bgp.Msg.Update
      { withdrawn = [];
        attrs =
          Some
            (attrs
               ~unknown:[ { Bgp.Attr.u_type = 99; u_flags = 0xC0; u_value = "\x01\x02" } ]
               [ 65001 ]);
        nlri = [ p "203.0.113.0/24" ] };
    Bgp.Msg.Update { withdrawn = [ p "0.0.0.0/0" ]; attrs = None; nlri = [] } ]

let mangled_case rng =
  let raw =
    Bgp.Wire.encode (List.nth seed_messages (Netsim.Rng.int rng (List.length seed_messages)))
  in
  let kinds = Netsim.Mangler.corpus_kinds in
  let kind = List.nth kinds (Netsim.Rng.int rng (List.length kinds)) in
  Netsim.Mangler.mutate rng kind raw

let run cases seed corpus_dir =
  let rng = Netsim.Rng.create seed in
  for _ = 1 to cases do
    classify (random_bytes rng);
    classify (mangled_case rng)
  done;
  match !failures with
  | [] ->
      Printf.printf "fuzz_wire: %d raw + %d mangled cases, decode total, 0 failures\n"
        cases cases;
      0
  | fs ->
      List.iter
        (fun (why, buf) ->
          let scenario = Triage.Scenario.Wire buf in
          match (Triage.Scenario.run scenario).Triage.Scenario.o_signatures with
          | [] ->
              (* Should be unreachable: [classify] and [Scenario.run]
                 agree on what a wire failure is. *)
              Printf.eprintf "fuzz_wire: FAIL %s (%s) -- unclassifiable\n" (hex buf) why
          | sg :: _ ->
              let r =
                Triage.Minimize.run ~max_tests:2000 ~target:sg scenario
              in
              let entry =
                Triage.Corpus.add ~dir:corpus_dir sg r.Triage.Minimize.r_minimized
              in
              Printf.eprintf
                "fuzz_wire: FAIL %s (%s)\n  minimized %d -> %d bytes, filed %s (hits %d)\n"
                (hex buf) why r.Triage.Minimize.r_original_size
                r.Triage.Minimize.r_minimized_size
                (Filename.concat corpus_dir (Triage.Corpus.filename_of sg))
                entry.Triage.Corpus.e_hits)
        fs;
      Printf.eprintf
        "fuzz_wire: %d failing buffer(s) filed into %s/ (dice-corpus/1; replay \
         with `dice_triage replay %s`)\n"
        (List.length fs) corpus_dir corpus_dir;
      1

open Cmdliner

(* Each knob is accepted positionally ([CASES [SEED [CORPUS_DIR]]], the
   form CI uses) or as a flag; the flag wins when both are given. *)
let knob i kind ~flag ~docv ~doc default =
  let names = [ flag ] in
  let positional = Arg.(value & pos i (some kind) None & info [] ~docv ~doc) in
  let named = Arg.(value & opt (some kind) None & info names ~docv ~doc) in
  let pick p f =
    match (f, p) with Some v, _ | None, Some v -> v | None, None -> default
  in
  Term.(const pick $ positional $ named)

let cmd =
  let doc = "differential fuzzer for the BGP wire codec" in
  let exits =
    Cmd.Exit.info 1 ~doc:"when failing buffers were found and filed."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "fuzz_wire" ~doc ~exits)
    Term.(
      const run
      $ knob 0 Arg.int ~flag:"budget" ~docv:"CASES"
          ~doc:"Cases per corpus (raw and mangled)." 10000
      $ knob 1 Arg.int ~flag:"seed" ~docv:"SEED" ~doc:"RNG seed." 1
      $ knob 2 Arg.string ~flag:"corpus" ~docv:"CORPUS_DIR"
          ~doc:"Corpus directory for minimized failures." "fuzz-corpus")

let () = exit (Cmd.eval' cmd)
