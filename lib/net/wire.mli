(** Safe big-endian readers/writers over [Bytes.t] for protocol codecs.

    Readers are direct-style: [r buf off] checks that the bytes it
    needs lie inside [buf] and returns the value itself, or raises
    {!Malformed} naming the shortfall. A decoder therefore reads field
    after field with no intermediate [result] and allocates only the
    values it returns. Codecs raise {!Malformed} for their own format
    errors too (see {!fail}).

    The contract every codec keeps: its public [decode] is the one
    place that handles {!Malformed}, turning it into [Error], so each
    [decode] is total — it returns [Ok] or [Error] on any input and
    never raises. {!Malformed} never escapes a codec's [decode].

    Writers raise [Invalid_argument] (a codec writing out of bounds is
    a programming error, not an input error). *)

exception Malformed of string
(** A read outside the buffer, or a codec's own format error. *)

val fail : string -> 'a
(** [fail msg] raises [Malformed msg]. *)

val failf : ('a, unit, string, 'b) format4 -> 'a
(** [failf fmt ...] raises [Malformed] with the formatted message. *)

val ensure : Bytes.t -> int -> int -> unit
(** [ensure buf off len] returns iff [\[off, off+len)] lies inside
    [buf] (with [off, len >= 0]); otherwise raises {!Malformed}. *)

val u8 : Bytes.t -> int -> int
val u16 : Bytes.t -> int -> int

val u32_int : Bytes.t -> int -> int
(** Big-endian 32-bit read as a non-negative [int] in [\[0, 2^32)]. *)

val bytes : int -> Bytes.t -> int -> Bytes.t
(** [bytes n buf off] copies [n] bytes starting at [off]. *)

val ipv4 : Bytes.t -> int -> Ipv4.t
val mac : Bytes.t -> int -> Mac.t

val set_u8 : Bytes.t -> int -> int -> unit
val set_u16 : Bytes.t -> int -> int -> unit

val set_u32_int : Bytes.t -> int -> int -> unit
(** Writes the low 32 bits of the [int]. *)

val set_ipv4 : Bytes.t -> int -> Ipv4.t -> unit
val set_mac : Bytes.t -> int -> Mac.t -> unit
