(* Result-style big-endian readers: every read returns [Error] instead
   of raising when its range falls outside the buffer. *)

open Horse_net

let check buf off len =
  if off >= 0 && len >= 0 && off + len <= Bytes.length buf then Ok ()
  else
    Error
      (Printf.sprintf "short buffer: need [%d,%d) but length is %d" off
         (off + len) (Bytes.length buf))

let ( let* ) = Result.bind

let u8 buf off =
  let* () = check buf off 1 in
  Ok (Bytes.get_uint8 buf off)

let u16 buf off =
  let* () = check buf off 2 in
  Ok (Bytes.get_uint16_be buf off)

let u32 buf off =
  let* () = check buf off 4 in
  Ok (Bytes.get_int32_be buf off)

let u32_int buf off =
  let* v = u32 buf off in
  Ok (Int32.to_int v land 0xFFFFFFFF)

let bytes n buf off =
  let* () = check buf off n in
  Ok (Bytes.sub buf off n)

let ipv4 buf off =
  let* v = u32 buf off in
  Ok (Ipv4.of_int32 v)

let mac buf off =
  let* () = check buf off 6 in
  let hi = Bytes.get_uint16_be buf off in
  let lo = Bytes.get_int32_be buf (off + 2) in
  let lo = Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL in
  Ok (Mac.of_int64 (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) lo))
