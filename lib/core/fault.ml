type fault_class = Operator_mistake | Policy_conflict | Programming_error | Cascade

let class_to_string = function
  | Operator_mistake -> "operator-mistake"
  | Policy_conflict -> "policy-conflict"
  | Programming_error -> "programming-error"
  | Cascade -> "cascade"

let class_of_string = function
  | "operator-mistake" -> Some Operator_mistake
  | "policy-conflict" -> Some Policy_conflict
  | "programming-error" -> Some Programming_error
  | "cascade" -> Some Cascade
  | _ -> None

type t = {
  f_class : fault_class;
  f_property : string;
  f_node : int;
  f_detail : string;
  f_input : Concolic.Ctx.input option;
  f_detected_at : Netsim.Time.t;
}

let make ?input ~at ~node ~property f_class detail =
  (* Every detection lands in the telemetry artifact with the span path
     of whatever produced it (round / cut / peer / shadow replay). *)
  Telemetry.fault ~t_us:(Netsim.Time.to_us at)
    ~fault_class:(class_to_string f_class) ~property ~node ~detail
    ~input:(Option.map Concolic.Ctx.input_to_string input) ();
  { f_class; f_property = property; f_node = node; f_detail = detail;
    f_input = input; f_detected_at = at }

(* Detail strings carry run-specific payloads (prefixes, ASNs, message
   hex, counters).  Normalization erases exactly those so that the same
   root cause yields the same string on every replay: digit runs become
   ['#'], and ['#'] groups joined only by separator characters collapse
   into one (so "10.0.2.0/24" and "1009 1005 1011" both normalize to
   "#" — an AS path keeps the same shape whatever its length). *)
let normalize_detail s =
  let is_digit c = c >= '0' && c <= '9' in
  let is_sep = function
    | ' ' | ',' | '.' | ':' | ';' | '/' | '-' | '_' | '(' | ')' | '[' | ']'
    | '<' | '>' | '=' | '+' | 'x' ->
        true
    | _ -> false
  in
  (* Pass 1: digit runs -> '#'; structural characters that would collide
     with the signature encoding -> ' '. *)
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_digit s.[!i] then begin
      Buffer.add_char b '#';
      while !i < n && is_digit s.[!i] do incr i done
    end
    else begin
      (match s.[!i] with
      | '\n' | '\r' | '\t' | '|' -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c);
      incr i
    end
  done;
  let s = Buffer.contents b in
  (* Pass 2: collapse '#'-groups and whitespace runs. *)
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '#' then begin
      Buffer.add_char b '#';
      incr i;
      let merging = ref true in
      while !merging do
        let j = ref !i in
        while !j < n && is_sep s.[!j] do incr j done;
        if !j < n && s.[!j] = '#' then i := !j + 1 else merging := false
      done
    end
    else if s.[!i] = ' ' then begin
      Buffer.add_char b ' ';
      while !i < n && s.[!i] = ' ' do incr i done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  let s = String.trim (Buffer.contents b) in
  if String.length s > 160 then String.sub s 0 160 else s

let root t =
  Printf.sprintf "%s|%s|%d" (class_to_string t.f_class) t.f_property t.f_node

(* Deduplicate by root, keeping the representative with the earliest
   [f_detected_at] (first occurrence wins a tie); output order is the
   order in which each root first appears in the input. *)
let dedupe faults =
  let best : (string, t) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun f ->
      let k = root f in
      match Hashtbl.find_opt best k with
      | None ->
          Hashtbl.add best k f;
          order := k :: !order
      | Some g ->
          if Netsim.Time.(f.f_detected_at < g.f_detected_at) then
            Hashtbl.replace best k f)
    faults;
  List.rev_map (fun k -> Hashtbl.find best k) !order

let pp ppf t =
  Format.fprintf ppf "[%a] %s %s at node %d: %s%s" Netsim.Time.pp t.f_detected_at
    (class_to_string t.f_class) t.f_property t.f_node t.f_detail
    (match t.f_input with
    | Some [] -> " (input: defaults)"
    | Some i -> " (input: " ^ Concolic.Ctx.input_to_string i ^ ")"
    | None -> " (baseline state)")
