(* BENCH.json I/O shared by the [par] and [scale] sections.

   The file is a checked-in baseline that more than one section writes
   to, so updates are read-modify-write: a section replaces only its
   own top-level fields and everything else — e.g. [scale] results when
   [par] runs, and vice versa — survives untouched.  Rendering is
   deterministic (canonical field order, two-level indentation) to keep
   diffs reviewable. *)

module Json = Telemetry.Json

let canonical_order =
  [ "schema"; "host_cores"; "topology"; "micro_ns_per_op";
    "micro_minor_words_per_op"; "exploration"; "solver_cache";
    "orchestrator"; "adversary"; "cascade"; "detection"; "scale" ]

let read_fields path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Json.of_string s with
    | Ok (Json.Obj fields) -> fields
    | Ok _ | Error _ -> []

(* Top-level objects and lists get one entry per line; anything nested
   deeper renders compact on a single line. *)
let render fields =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  let n = List.length fields in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b (Printf.sprintf "  %s: " (Json.to_string (Json.String k)));
      (match v with
      | Json.Obj ((_ :: _) as inner) ->
          Buffer.add_string b "{\n";
          let m = List.length inner in
          List.iteri
            (fun j (ik, iv) ->
              Buffer.add_string b
                (Printf.sprintf "    %s: %s%s\n"
                   (Json.to_string (Json.String ik))
                   (Json.to_string iv)
                   (if j = m - 1 then "" else ",")))
            inner;
          Buffer.add_string b "  }"
      | Json.List ((_ :: _) as inner) ->
          Buffer.add_string b "[\n";
          let m = List.length inner in
          List.iteri
            (fun j iv ->
              Buffer.add_string b
                (Printf.sprintf "    %s%s\n" (Json.to_string iv)
                   (if j = m - 1 then "" else ",")))
            inner;
          Buffer.add_string b "  ]"
      | v -> Buffer.add_string b (Json.to_string v));
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    fields;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Replace the given top-level fields, keep every other existing field,
   and write the result in canonical order (unknown fields last, in
   their original order). *)
let update ~path sets =
  let existing = read_fields path in
  let kept =
    List.filter (fun (k, _) -> not (List.mem_assoc k sets)) existing
  in
  let fields = kept @ sets in
  let rank k =
    let rec go i = function
      | [] -> List.length canonical_order
      | x :: _ when String.equal x k -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 canonical_order
  in
  let fields =
    List.stable_sort (fun (a, _) (b, _) -> compare (rank a) (rank b)) fields
  in
  let oc = open_out path in
  output_string oc (render fields);
  close_out oc

(* Benchmark numbers carry sub-ns noise digits; two decimals is what
   the baseline diffs and the gate thresholds care about. *)
let round2 v = Float.of_int (int_of_float ((v *. 100.) +. 0.5)) /. 100.
