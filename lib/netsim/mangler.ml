type kind =
  | Bit_flip
  | Truncate
  | Corrupt_length
  | Corrupt_marker
  | Duplicate
  | Garbage_prepend
  | Garbage_append
  | Drop

let all_kinds =
  [ Bit_flip; Truncate; Corrupt_length; Corrupt_marker; Duplicate;
    Garbage_prepend; Garbage_append; Drop ]

let corpus_kinds =
  [ Bit_flip; Truncate; Corrupt_length; Corrupt_marker; Garbage_prepend;
    Garbage_append ]

let kind_name = function
  | Bit_flip -> "bit_flip"
  | Truncate -> "truncate"
  | Corrupt_length -> "corrupt_length"
  | Corrupt_marker -> "corrupt_marker"
  | Duplicate -> "duplicate"
  | Garbage_prepend -> "garbage_prepend"
  | Garbage_append -> "garbage_append"
  | Drop -> "drop"

let kind_of_string s =
  List.find_opt (fun k -> String.equal (kind_name k) s) all_kinds

(* BGP framing constants the targeted mutations aim at; [mutate] stays
   total on arbitrary strings regardless. *)
let marker_len = 16
let header_len = 19

let random_bytes rng n = String.init n (fun _ -> Char.chr (Rng.int rng 256))

let with_byte s i b =
  let bs = Bytes.of_string s in
  Bytes.set bs i (Char.chr b);
  Bytes.to_string bs

let mutate rng kind s =
  let len = String.length s in
  match kind with
  | Drop | Duplicate -> s
  | Bit_flip ->
      if len = 0 then random_bytes rng 1
      else
        let i = Rng.int rng len in
        with_byte s i (Char.code s.[i] lxor (1 lsl Rng.int rng 8))
  | Truncate ->
      (* Strictly shorter, so a framed message always loses bytes. *)
      if len = 0 then s else String.sub s 0 (Rng.int rng len)
  | Corrupt_length ->
      (* The BGP header length field lives at offsets 16-17; corrupt it
         (or the nearest thing to it on short inputs) to a value that
         disagrees with the real length. *)
      if len = 0 then random_bytes rng header_len
      else
        let i = if len > marker_len + 1 then marker_len + 1 else len - 1 in
        let forged = (Char.code s.[i] + 1 + Rng.int rng 255) land 0xFF in
        with_byte s i forged
  | Corrupt_marker ->
      (* Any non-0xFF byte in the first 16 positions breaks the marker. *)
      if len = 0 then random_bytes rng 1
      else
        let i = Rng.int rng (min marker_len len) in
        with_byte s i (Rng.int rng 0xFF)
  | Garbage_prepend -> random_bytes rng (1 + Rng.int rng 8) ^ s
  | Garbage_append -> s ^ random_bytes rng (1 + Rng.int rng 8)

(* ------------------------------------------------------------------ *)
(* Registry accounting                                                  *)
(* ------------------------------------------------------------------ *)

let c_passed = lazy (Telemetry.Metrics.counter "mangler.passed")
let c_mangled = lazy (Telemetry.Metrics.counter "mangler.mangled")
let c_dropped = lazy (Telemetry.Metrics.counter "mangler.dropped")
let c_duplicated = lazy (Telemetry.Metrics.counter "mangler.duplicated")

let c_kind k = lazy (Telemetry.Metrics.counter ("mangler.mangled." ^ kind_name k))

let kind_counters = List.map (fun k -> (k, c_kind k)) all_kinds

let bump_kind k =
  Telemetry.Metrics.incr (Lazy.force (List.assq k kind_counters))

let totals () =
  let v c = Telemetry.Metrics.value (Lazy.force c) in
  (v c_mangled, v c_dropped, v c_duplicated, v c_passed)

let kind_counts () =
  List.filter_map
    (fun (k, c) ->
      match Telemetry.Metrics.value (Lazy.force c) with
      | 0 -> None
      | n -> Some (kind_name k, n))
    kind_counters

(* ------------------------------------------------------------------ *)
(* The injector                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  m_seed : int;
  mutable m_rate : float;
  mutable m_kinds : kind array;
  mutable m_links : (int * int) list option;  (* None = every link *)
  (* One independent stream per directed link, so adding traffic on one
     link never perturbs the fault pattern of another. *)
  m_rngs : (int * int, Rng.t) Hashtbl.t;
}

let create ?(rate = 0.) ?(kinds = all_kinds) ?links ~seed () =
  if rate < 0. || rate > 1. then invalid_arg "Mangler.create: rate must be in [0,1]";
  if kinds = [] then invalid_arg "Mangler.create: empty kind list";
  { m_seed = seed; m_rate = rate; m_kinds = Array.of_list kinds;
    m_links = links; m_rngs = Hashtbl.create 64 }

let set_rate t rate =
  if rate < 0. || rate > 1. then invalid_arg "Mangler.set_rate: rate must be in [0,1]";
  t.m_rate <- rate

let rate t = t.m_rate

let set_kinds t kinds =
  if kinds = [] then invalid_arg "Mangler.set_kinds: empty kind list";
  t.m_kinds <- Array.of_list kinds

let set_links t links = t.m_links <- links

let rng_for t src dst =
  match Hashtbl.find_opt t.m_rngs (src, dst) with
  | Some rng -> rng
  | None ->
      let rng = Rng.create (t.m_seed lxor (src * 0x1000003) lxor (dst * 0x10000019)) in
      Hashtbl.add t.m_rngs (src, dst) rng;
      rng

let targets t src dst =
  match t.m_links with
  | None -> true
  | Some links -> List.mem (src, dst) links

(* At rate 0 no RNG is consulted and every message passes untouched, so
   an installed-but-idle mangler leaves a run bit-identical to one with
   no mangler at all. *)
let transform t ~src ~dst msg =
  if t.m_rate <= 0. || not (targets t src dst) then [ msg ]
  else
    let rng = rng_for t src dst in
    if not (Rng.chance rng t.m_rate) then begin
      Telemetry.Metrics.incr (Lazy.force c_passed);
      [ msg ]
    end
    else begin
      let kind = t.m_kinds.(Rng.int rng (Array.length t.m_kinds)) in
      bump_kind kind;
      match kind with
      | Drop ->
          Telemetry.Metrics.incr (Lazy.force c_dropped);
          []
      | Duplicate ->
          Telemetry.Metrics.incr (Lazy.force c_duplicated);
          [ msg; msg ]
      | k ->
          Telemetry.Metrics.incr (Lazy.force c_mangled);
          [ mutate rng k msg ]
    end

let install t net = Network.set_transform net (Some (fun ~src ~dst m -> transform t ~src ~dst m))
let remove net = Network.set_transform net None

(* ------------------------------------------------------------------ *)
(* Declarative schedules, in the style of Churn                         *)
(* ------------------------------------------------------------------ *)

type event =
  | Set_rate of float
  | Set_kinds of kind list
  | Set_links of (int * int) list option

type entry = { at : Time.span; ev : event }
type schedule = entry list

let entry ~at ev = { at; ev }

let window ~rate ~from_ ~until_ =
  if until_ <= from_ then invalid_arg "Mangler.window: empty window";
  [ { at = from_; ev = Set_rate rate }; { at = until_; ev = Set_rate 0. } ]

let sort sched = List.stable_sort (fun x y -> Int.compare x.at y.at) sched

let events_applied = lazy (Telemetry.Metrics.counter "mangler.events_applied")

let apply_event t ev =
  Telemetry.Metrics.incr (Lazy.force events_applied);
  match ev with
  | Set_rate r -> set_rate t r
  | Set_kinds ks -> set_kinds t ks
  | Set_links ls -> set_links t ls

let apply t net sched =
  let eng = Network.engine net in
  List.map
    (fun { at; ev } -> Engine.schedule eng ~after:at (fun () -> apply_event t ev))
    (sort sched)

let cancel timers = List.iter Engine.cancel timers
