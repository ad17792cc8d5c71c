let ( let* ) = Result.bind

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_json path =
  match read_file path with
  | exception Sys_error e -> Error e
  | contents -> Result.map_error (Printf.sprintf "%s: %s" path) (Json.of_string contents)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* The tmp file is fully on disk before the rename publishes it, and
   the rename is on disk before this returns: a campaign killed at any
   instant never leaves a "filed" journal record pointing at an entry
   the crash rolled back. *)
let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length contents in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd contents !written (n - !written)
      done;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let write_json ~path json = write_atomic ~path (Json.to_string json ^ "\n")

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name j =
  match Json.member name j with Some Json.Null | None -> None | Some v -> Some v

let check_schema want j =
  let* v = field "schema" j in
  match v with
  | Json.String s when String.equal s want -> Ok ()
  | _ -> Error (Printf.sprintf "schema %s, want %S" (Json.to_string v) want)

let expected what j =
  Error (Printf.sprintf "expected %s, got %s" what (Json.to_string j))

let as_int = function Json.Int n -> Ok n | j -> expected "int" j

let as_float = function
  | Json.Float f -> Ok f
  | Json.Int n -> Ok (float_of_int n)
  | j -> expected "number" j

let as_string = function Json.String s -> Ok s | j -> expected "string" j
let as_bool = function Json.Bool b -> Ok b | j -> expected "bool" j
let as_list = function Json.List l -> Ok l | j -> expected "list" j

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] l

let typed decode name j =
  let* v = field name j in
  match decode v with
  | Ok _ as ok -> ok
  | Error e -> Error (Printf.sprintf "field %S: %s" name e)

let int_field name j = typed as_int name j
let float_field name j = typed as_float name j
let string_field name j = typed as_string name j
let bool_field name j = typed as_bool name j
let list_field name j = typed as_list name j
let list_of decode name j =
  typed (fun v -> Result.bind (as_list v) (map_result decode)) name j
