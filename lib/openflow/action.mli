(** OpenFlow actions (the 1.0 subset the switch model executes). *)

type t =
  | Output of int  (** forward out a port number *)
  | Flood  (** all ports except the ingress *)
  | To_controller of int  (** send to controller, max_len bytes *)

val size : t -> int
(** Encoded size (8 bytes each). *)

val write : Bytes.t -> int -> t -> int
(** Writes one action, returns the offset past it. *)

val read : Bytes.t -> int -> t
(** Reads the 8-byte action at the offset.
    @raise Horse_net.Wire.Malformed on a bad or truncated action. *)

val write_list : Bytes.t -> int -> t list -> int

val read_list : Bytes.t -> int -> limit:int -> t list
(** Reads actions from the offset up to [limit].
    @raise Horse_net.Wire.Malformed as {!read}, or when the list
    overruns [limit]. *)

val list_size : t list -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val port_flood : int
(** The reserved OFPP_FLOOD port number (0xFFFB). *)

val port_controller : int
(** OFPP_CONTROLLER (0xFFFD). *)
