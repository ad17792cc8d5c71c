(** Durable single-document JSON artifacts: the one reader, writer,
    schema check and field accessor set behind every schema-tagged file
    DiCE writes (corpus entries, repair records, cascade and coverage
    reports, campaign specs and reports).

    Each artifact is one JSON object on one line plus a newline, with a
    ["schema"] member naming its format.  Writes are atomic and durable:
    a process killed at any instant leaves the old file or the new one,
    never a torn half-write.  The streaming [dice-telemetry/1] JSONL
    sink and the campaign journal have their own append protocols and
    do not go through {!write_json}. *)

(** {1 Files} *)

val read_file : string -> string
(** The whole file.  Raises [Sys_error]. *)

val read_json : string -> (Json.t, string) result
(** {!read_file} parsed as one JSON document.  An unreadable file or
    malformed (e.g. torn) JSON is an [Error] naming the file, never an
    exception. *)

val fsync_dir : string -> unit
(** fsync a directory so creations and renames inside it are durable.
    Errors are swallowed: some filesystems refuse directory fsync, which
    weakens durability but never atomicity. *)

val write_atomic : path:string -> string -> unit
(** Write [path.tmp], fsync it, rename it over [path], then
    {!fsync_dir} the parent: a reader sees the old bytes or the new
    ones, and once this returns the new ones survive a crash. *)

val write_json : path:string -> Json.t -> unit
(** {!write_atomic} of [Json.to_string json ^ "\n"]. *)

(** {1 Decoding} *)

val check_schema : string -> Json.t -> (unit, string) result
(** [Ok ()] iff the document's ["schema"] member is the given tag. *)

val field : string -> Json.t -> (Json.t, string) result
(** A present member; [Error "missing field ..."] otherwise. *)

val opt_field : string -> Json.t -> Json.t option
(** [None] for a missing member or an explicit [null]. *)

val as_int : Json.t -> (int, string) result
val as_float : Json.t -> (float, string) result
(** Accepts [Int] as well as [Float]. *)

val as_string : Json.t -> (string, string) result
val as_list : Json.t -> (Json.t list, string) result

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** First error wins; order is preserved. *)

val int_field : string -> Json.t -> (int, string) result
val float_field : string -> Json.t -> (float, string) result
val string_field : string -> Json.t -> (string, string) result
val bool_field : string -> Json.t -> (bool, string) result
val list_field : string -> Json.t -> (Json.t list, string) result
(** [field] then the matching [as_*]; errors name the field. *)

val list_of :
  (Json.t -> ('a, string) result) -> string -> Json.t -> ('a list, string) result
(** [list_of as_int "nodes" j]: a list member decoded element-wise. *)
