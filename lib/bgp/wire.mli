(** RFC 4271 binary message codec.

    One BGP message per buffer.  Decoding validates the header, the
    attribute flags and lengths, and the NLRI encoding; violations are
    reported with the notification (code, subcode) a conforming speaker
    would send, which the session FSM forwards to the peer. *)

type error = { code : int; subcode : int; reason : string }

val encode : Msg.t -> string
(** @raise Invalid_argument if the message exceeds the 4096-byte limit. *)

val decode : string -> (Msg.t, error) result
(** Decodes exactly one message occupying the whole buffer.  Total on
    arbitrary byte strings: it returns [Ok] or [Error] and never
    raises.  An unexpected exception inside a decoder (a codec bug) is
    reported as an error with {!is_codec_crash} true rather than
    escaping. *)

(** How a receiver should react to a buffer, per RFC 7606. *)
type graceful =
  | Msg of Msg.t  (** well-formed *)
  | Treat_as_withdraw of {
      withdrawn : Prefix.t list;
      nlri : Prefix.t list;
      err : error;
    }
      (** an UPDATE whose envelope (withdrawn routes + NLRI) parsed but
          whose path attributes are malformed: the session survives and
          every prefix the UPDATE carried must be treated as withdrawn *)
  | Reset of error
      (** header, OPEN, envelope or other unrecoverable error: send the
          NOTIFICATION and reset the session *)

val decode_graceful : string -> graceful
(** Like {!decode} but classifies the failure per RFC 7606 error
    handling.  Total: never raises (except [Stack_overflow] /
    [Out_of_memory]). *)

val is_codec_crash : error -> bool
(** [true] iff the error reports a decoder escaping with an unexpected
    exception (reserved code 0) — a programming error in the codec
    itself, as opposed to malformed input detected by it. *)

val pp_error : Format.formatter -> error -> unit
