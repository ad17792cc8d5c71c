type open_msg = { version : int; my_as : int; hold_time : int; bgp_id : Ipv4.t }

type update = {
  withdrawn : Prefix.t list;
  attrs : Attr.t option;
  nlri : Prefix.t list;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_msg
  | Update of update
  | Notification of notification
  | Keepalive

let keepalive = Keepalive

let update ?(withdrawn = []) ?(attrs = None) ?(nlri = []) () =
  Update { withdrawn; attrs; nlri }

let kind = function
  | Open _ -> "OPEN"
  | Update _ -> "UPDATE"
  | Notification _ -> "NOTIFICATION"
  | Keepalive -> "KEEPALIVE"

module Error = struct
  let message_header = 1
  let open_message = 2
  let update_message = 3
  let hold_timer_expired = 4
  let fsm_error = 5
  let cease = 6

  let bad_marker = 1
  let bad_length = 2
  let bad_type = 3

  let unsupported_version = 1
  let bad_peer_as = 2
  let bad_bgp_id = 3
  let unacceptable_hold_time = 6

  let malformed_attribute_list = 1
  let unrecognized_wellknown = 2
  let missing_wellknown = 3
  let attribute_flags = 4
  let attribute_length = 5
  let invalid_origin = 6
  let invalid_next_hop = 8
  let invalid_network_field = 10
  let malformed_as_path = 11

  let to_string code subcode =
    let major =
      match code with
      | 1 -> "message-header-error"
      | 2 -> "open-message-error"
      | 3 -> "update-message-error"
      | 4 -> "hold-timer-expired"
      | 5 -> "fsm-error"
      | 6 -> "cease"
      | _ -> Printf.sprintf "code-%d" code
    in
    Printf.sprintf "%s/%d" major subcode
end

let pp ppf = function
  | Open o ->
      Format.fprintf ppf "OPEN(as=%d hold=%d id=%a)" o.my_as o.hold_time Ipv4.pp
        o.bgp_id
  | Update u ->
      Format.fprintf ppf "UPDATE(withdraw=[%s] nlri=[%s]%a)"
        (String.concat ";" (List.map Prefix.to_string u.withdrawn))
        (String.concat ";" (List.map Prefix.to_string u.nlri))
        (fun ppf -> function
          | Some a -> Format.fprintf ppf " %a" Attr.pp a
          | None -> ())
        u.attrs
  | Notification n ->
      Format.fprintf ppf "NOTIFICATION(%s)" (Error.to_string n.code n.subcode)
  | Keepalive -> Format.pp_print_string ppf "KEEPALIVE"
