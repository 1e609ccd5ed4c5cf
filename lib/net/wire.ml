exception Malformed of string

let fail msg = raise (Malformed msg)
let failf fmt = Printf.ksprintf fail fmt

let short buf off len =
  failf "short buffer: need [%d,%d) but length is %d" off (off + len)
    (Bytes.length buf)

let ensure buf off len =
  if not (off >= 0 && len >= 0 && off + len <= Bytes.length buf) then
    short buf off len

(* Each reader checks its range once and then reads unchecked. *)

let u8 buf off =
  if off < 0 || off + 1 > Bytes.length buf then short buf off 1;
  Bytes.get_uint8 buf off

let u16 buf off =
  if off < 0 || off + 2 > Bytes.length buf then short buf off 2;
  Bytes.get_uint16_be buf off

let u32_int buf off =
  if off < 0 || off + 4 > Bytes.length buf then short buf off 4;
  Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFFFFFF

let bytes n buf off =
  ensure buf off n;
  Bytes.sub buf off n

let ipv4 buf off =
  if off < 0 || off + 4 > Bytes.length buf then short buf off 4;
  Ipv4.of_int32 (Bytes.get_int32_be buf off)

let mac buf off =
  if off < 0 || off + 6 > Bytes.length buf then short buf off 6;
  let hi = Bytes.get_uint16_be buf off in
  let lo = Int32.to_int (Bytes.get_int32_be buf (off + 2)) land 0xFFFFFFFF in
  Mac.of_int64 (Int64.of_int ((hi lsl 32) lor lo))

let set_u8 buf off v = Bytes.set_uint8 buf off (v land 0xFF)
let set_u16 buf off v = Bytes.set_uint16_be buf off (v land 0xFFFF)
let set_u32 buf off v = Bytes.set_int32_be buf off v
let set_u32_int buf off v = Bytes.set_int32_be buf off (Int32.of_int v)
let set_ipv4 buf off a = set_u32 buf off (Ipv4.to_int32 a)

let set_mac buf off m =
  let v = Mac.to_int64 m in
  set_u16 buf off (Int64.to_int (Int64.shift_right_logical v 32));
  set_u32 buf (off + 2) (Int64.to_int32 v)
