open Horse_net
open Wire

type origin = Igp | Egp | Incomplete

let origin_to_int = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_of_int = function
  | 0 -> Igp
  | 1 -> Egp
  | 2 -> Incomplete
  | n -> failf "bgp: bad origin %d" n

let pp_origin fmt o =
  Format.pp_print_string fmt
    (match o with Igp -> "igp" | Egp -> "egp" | Incomplete -> "incomplete")

type attrs = {
  origin : origin;
  as_path : int list;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  communities : int list;
}

let community ~asn v =
  if asn < 0 || asn > 0xFFFF || v < 0 || v > 0xFFFF then
    invalid_arg "Bgp.Msg.community: halves must fit 16 bits";
  (asn lsl 16) lor v

let pp_community fmt c = Format.fprintf fmt "%d:%d" (c lsr 16) (c land 0xFFFF)

let pp_attrs fmt a =
  Format.fprintf fmt "origin=%a as-path=[%s] next-hop=%a%s%s%s" pp_origin
    a.origin
    (String.concat " " (List.map string_of_int a.as_path))
    Ipv4.pp a.next_hop
    (match a.med with Some m -> Printf.sprintf " med=%d" m | None -> "")
    (match a.local_pref with
    | Some l -> Printf.sprintf " local-pref=%d" l
    | None -> "")
    (match a.communities with
    | [] -> ""
    | cs ->
        " communities="
        ^ String.concat ","
            (List.map (fun c -> Format.asprintf "%a" pp_community c) cs))

let attrs_equal a b =
  a.origin = b.origin
  && List.equal Int.equal a.as_path b.as_path
  && Ipv4.equal a.next_hop b.next_hop
  && Option.equal Int.equal a.med b.med
  && Option.equal Int.equal a.local_pref b.local_pref
  && List.equal Int.equal a.communities b.communities

let hash_int_list seed l =
  List.fold_left (fun h x -> (h * 31) + x + 1) seed l

let attrs_hash a =
  let h = origin_to_int a.origin in
  let h = (h * 31) + Ipv4.hash a.next_hop in
  let h = (h * 31) + Option.value a.med ~default:(-7) in
  let h = (h * 31) + Option.value a.local_pref ~default:(-13) in
  let h = hash_int_list h a.as_path in
  let h = hash_int_list h a.communities in
  h land max_int

type open_msg = { asn : int; hold_time_s : int; bgp_id : Ipv4.t }

type update = { withdrawn : Prefix.t list; reach : (attrs * Prefix.t list) option }

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of { code : int; subcode : int }

let header_size = 19

(* --- encoding ------------------------------------------------------ *)

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Bgp.Msg.encode: %s %d out of 16-bit range" what v)

let prefix_wire_size p = 1 + ((Prefix.length p + 7) / 8)

let write_prefix buf off p =
  let len = Prefix.length p in
  set_u8 buf off len;
  let nbytes = (len + 7) / 8 in
  let addr = Ipv4.to_int32 (Prefix.network p) in
  for i = 0 to nbytes - 1 do
    set_u8 buf (off + 1 + i)
      (Int32.to_int (Int32.shift_right_logical addr (24 - (8 * i))) land 0xFF)
  done;
  off + 1 + nbytes

let attr_flags_transitive = 0x40
let attr_flags_optional = 0x80
let attr_flags_extended = 0x10

(* RFC 4271 4.3: a payload over 255 bytes takes the Extended Length
   form, a 2-byte length field instead of 1. *)
let attr_size payload_len = (if payload_len > 255 then 4 else 3) + payload_len

let as_path_payload_len a =
  match a.as_path with [] -> 0 | path -> 2 + (2 * List.length path)

let attrs_wire_size a =
  attr_size 1 (* origin *)
  + attr_size (as_path_payload_len a)
  + attr_size 4 (* next hop *)
  + (match a.med with Some _ -> attr_size 4 | None -> 0)
  + (match a.local_pref with Some _ -> attr_size 4 | None -> 0)
  + match a.communities with [] -> 0 | cs -> attr_size (4 * List.length cs)

let write_attrs buf off a =
  if List.length a.as_path > 255 then
    invalid_arg "Bgp.Msg.encode: AS_PATH longer than 255";
  List.iter (fun asn -> check_u16 "ASN" asn) a.as_path;
  let off = ref off in
  let attr type_ flags payload_len writer =
    let value_off =
      if payload_len > 255 then begin
        set_u8 buf !off (flags lor attr_flags_extended);
        set_u16 buf (!off + 2) payload_len;
        !off + 4
      end
      else begin
        set_u8 buf !off flags;
        set_u8 buf (!off + 2) payload_len;
        !off + 3
      end
    in
    set_u8 buf (!off + 1) type_;
    writer value_off;
    off := value_off + payload_len
  in
  attr 1 attr_flags_transitive 1 (fun o -> set_u8 buf o (origin_to_int a.origin));
  let as_path_len = List.length a.as_path in
  let seg_len = as_path_payload_len a in
  attr 2 attr_flags_transitive seg_len (fun o ->
      if as_path_len > 0 then begin
        set_u8 buf o 2 (* AS_SEQUENCE *);
        set_u8 buf (o + 1) as_path_len;
        List.iteri (fun i asn -> set_u16 buf (o + 2 + (2 * i)) asn) a.as_path
      end);
  attr 3 attr_flags_transitive 4 (fun o -> set_ipv4 buf o a.next_hop);
  (match a.med with
  | Some m -> attr 4 attr_flags_optional 4 (fun o -> set_u32_int buf o m)
  | None -> ());
  (match a.local_pref with
  | Some l -> attr 5 attr_flags_transitive 4 (fun o -> set_u32_int buf o l)
  | None -> ());
  (match a.communities with
  | [] -> ()
  | cs ->
      if List.length cs > 63 then
        invalid_arg "Bgp.Msg.encode: more than 63 communities";
      attr 8
        (attr_flags_optional lor attr_flags_transitive)
        (4 * List.length cs)
        (fun o -> List.iteri (fun i c -> set_u32_int buf (o + (4 * i)) c) cs));
  !off

let body_size = function
  | Open _ -> 10
  | Keepalive -> 0
  | Notification _ -> 2
  | Update u ->
      let withdrawn = List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 u.withdrawn in
      let reach =
        match u.reach with
        | None -> 0
        | Some (attrs, nlri) ->
            attrs_wire_size attrs
            + List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 nlri
      in
      2 + withdrawn + 2 + reach

let type_code = function
  | Open _ -> 1
  | Update _ -> 2
  | Notification _ -> 3
  | Keepalive -> 4

let encode t =
  let len = header_size + body_size t in
  check_u16 "message length" len;
  let buf = Bytes.make len '\000' in
  Bytes.fill buf 0 16 '\xff';
  set_u16 buf 16 len;
  set_u8 buf 18 (type_code t);
  let off = header_size in
  (match t with
  | Keepalive -> ()
  | Notification { code; subcode } ->
      set_u8 buf off code;
      set_u8 buf (off + 1) subcode
  | Open o ->
      check_u16 "ASN" o.asn;
      check_u16 "hold time" o.hold_time_s;
      set_u8 buf off 4 (* version *);
      set_u16 buf (off + 1) o.asn;
      set_u16 buf (off + 3) o.hold_time_s;
      set_ipv4 buf (off + 5) o.bgp_id;
      set_u8 buf (off + 9) 0 (* no optional parameters *)
  | Update u ->
      let wlen =
        List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 u.withdrawn
      in
      set_u16 buf off wlen;
      let o = ref (off + 2) in
      List.iter (fun p -> o := write_prefix buf !o p) u.withdrawn;
      let attr_len_pos = !o in
      o := !o + 2;
      (match u.reach with
      | None -> set_u16 buf attr_len_pos 0
      | Some (attrs, nlri) ->
          let attrs_end = write_attrs buf !o attrs in
          set_u16 buf attr_len_pos (attrs_end - !o);
          o := attrs_end;
          List.iter (fun p -> o := write_prefix buf !o p) nlri));
  buf

(* --- decoding ------------------------------------------------------ *)

(* The readers below raise [Wire.Malformed]; [decode] is their one
   handler. Lists are built front to back by non-tail recursion (a
   message holds at most a few thousand elements), so a decode
   allocates its result and nothing else: no [result] per read, no
   closure, no reversed copy. *)

let rec read_prefixes buf off limit =
  if off > limit then fail "bgp: prefix list overruns its length field"
  else if off = limit then []
  else begin
    let len = u8 buf off in
    if len > 32 then failf "bgp: prefix length %d > 32" len;
    let nbytes = (len + 7) / 8 in
    let next = off + 1 + nbytes in
    if next > limit then fail "bgp: truncated prefix";
    let addr = ref 0 in
    for i = 1 to nbytes do
      addr := (!addr lsl 8) lor u8 buf (off + i)
    done;
    let addr = !addr lsl (8 * (4 - nbytes)) in
    let p = Prefix.make (Ipv4.of_int32 (Int32.of_int addr)) len in
    p :: read_prefixes buf next limit
  end

let rec read_u16s buf off n =
  if n = 0 then []
  else
    let v = u16 buf off in
    v :: read_u16s buf (off + 2) (n - 1)

let rec read_u32s buf off n =
  if n = 0 then []
  else
    let v = u32_int buf off in
    v :: read_u32s buf (off + 4) (n - 1)

let read_as_path buf off len =
  if len = 0 then []
  else begin
    if u8 buf off <> 2 then fail "bgp: only AS_SEQUENCE segments supported";
    let count = u8 buf (off + 1) in
    if 2 + (2 * count) <> len then fail "bgp: AS_PATH segment length mismatch";
    read_u16s buf (off + 2) count
  end

(* Attributes accumulate in locals rather than a record copied per
   attribute: [-1] marks an absent integer-valued attribute (all are
   unsigned on the wire), and the next hop stays an unboxed [int]
   until the result is built. *)
let read_attrs buf off limit =
  let origin = ref Igp and has_origin = ref false in
  let as_path = ref [] and has_as_path = ref false in
  let next_hop = ref (-1) and med = ref (-1) and local_pref = ref (-1) in
  let communities = ref [] in
  let off = ref off in
  while !off < limit do
    let o = !off in
    let extended = u8 buf o land attr_flags_extended <> 0 in
    let type_ = u8 buf (o + 1) in
    let len = if extended then u16 buf (o + 2) else u8 buf (o + 2) in
    let val_off = if extended then o + 4 else o + 3 in
    if val_off + len > limit then fail "bgp: truncated attribute";
    (match type_ with
    | 1 ->
        origin := origin_of_int (u8 buf val_off);
        has_origin := true
    | 2 ->
        as_path := read_as_path buf val_off len;
        has_as_path := true
    | 3 -> next_hop := u32_int buf val_off
    | 4 -> med := u32_int buf val_off
    | 5 -> local_pref := u32_int buf val_off
    | 8 ->
        if len mod 4 <> 0 then fail "bgp: COMMUNITIES length not 4n";
        communities := read_u32s buf val_off (len / 4)
    | _ -> (* Unknown attribute: skip (we never set partial bit). *) ());
    off := val_off + len
  done;
  if !off > limit then fail "bgp: attributes overrun their length field";
  let opt v = if v < 0 then None else Some v in
  match (!has_origin, !has_as_path, !next_hop >= 0) with
  | true, true, true ->
      Some
        {
          origin = !origin;
          as_path = !as_path;
          next_hop = Ipv4.of_int32 (Int32.of_int !next_hop);
          med = opt !med;
          local_pref = opt !local_pref;
          communities = !communities;
        }
  | false, false, false -> None
  | _, _, _ -> fail "bgp: missing mandatory attribute"

let decode_exn buf =
  ensure buf 0 header_size;
  for i = 0 to 15 do
    if Bytes.get buf i <> '\xff' then fail "bgp: bad marker"
  done;
  let len = u16 buf 16 in
  if len <> Bytes.length buf then fail "bgp: length field mismatch";
  let off = header_size in
  match u8 buf 18 with
  | 4 -> if len = header_size then Keepalive else fail "bgp: keepalive with body"
  | 3 ->
      let code = u8 buf off in
      let subcode = u8 buf (off + 1) in
      Notification { code; subcode }
  | 1 ->
      let version = u8 buf off in
      if version <> 4 then failf "bgp: version %d" version;
      let asn = u16 buf (off + 1) in
      let hold_time_s = u16 buf (off + 3) in
      let bgp_id = ipv4 buf (off + 5) in
      if u8 buf (off + 9) <> 0 then fail "bgp: optional parameters unsupported";
      Open { asn; hold_time_s; bgp_id }
  | 2 ->
      let wlen = u16 buf off in
      let wstart = off + 2 in
      let withdrawn = read_prefixes buf wstart (wstart + wlen) in
      let alen = u16 buf (wstart + wlen) in
      let astart = wstart + wlen + 2 in
      let attrs = read_attrs buf astart (astart + alen) in
      let nlri = read_prefixes buf (astart + alen) len in
      let reach =
        match (attrs, nlri) with
        | Some a, _ -> Some (a, nlri)
        | None, [] -> None
        | None, _ :: _ -> fail "bgp: NLRI without attributes"
      in
      Update { withdrawn; reach }
  | n -> failf "bgp: unknown message type %d" n

let decode buf =
  match decode_exn buf with
  | t -> Ok t
  | exception Malformed e -> Error e

(* --- packed encoding ----------------------------------------------- *)

let max_message_size = 4096

type packed = { bytes : Bytes.t; announced : int; withdrawn : int }

module Packer = struct
  type t = { scratch : Bytes.t; mutable attrs_scratch : Bytes.t }

  let create () =
    {
      scratch = Bytes.create max_message_size;
      attrs_scratch = Bytes.create 1024;
    }

  (* Serialize the group's shared attributes once; every emitted
     message blits this slice instead of re-walking the attr lists. *)
  let prepare_attrs t attrs =
    let size = attrs_wire_size attrs in
    if Bytes.length t.attrs_scratch < size then
      t.attrs_scratch <- Bytes.create (2 * size);
    let end_ = write_attrs t.attrs_scratch 0 attrs in
    if end_ <> size then failwith "Bgp.Msg.Packer: attrs size mismatch";
    size

  (* Take prefixes from [ps] while their wire size fits in [room]. *)
  let take room ps =
    let rec go acc n used = function
      | p :: rest when used + prefix_wire_size p <= room ->
          go (p :: acc) (n + 1) (used + prefix_wire_size p) rest
      | rest -> (acc, n, used, rest)
    in
    go [] 0 0 ps

  let pack t ?(withdrawn = []) ?reach () =
    let attrs, nlri =
      match reach with
      | Some (a, (_ :: _ as nlri)) -> (Some a, nlri)
      | Some (_, []) | None -> (None, [])
    in
    let asize = match attrs with Some a -> prepare_attrs t a | None -> 0 in
    let budget = max_message_size - header_size - 4 in
    let msgs = ref [] in
    let emit ~withdrawn_rev ~n_w ~w_bytes ~nlri_rev ~n_n ~n_bytes =
      let len =
        header_size + 4 + w_bytes + (if n_n > 0 then asize else 0) + n_bytes
      in
      let buf = t.scratch in
      Bytes.fill buf 0 16 '\xff';
      set_u16 buf 16 len;
      set_u8 buf 18 2 (* UPDATE *);
      set_u16 buf header_size w_bytes;
      let o = ref (header_size + 2) in
      List.iter (fun p -> o := write_prefix buf !o p) (List.rev withdrawn_rev);
      if n_n > 0 then begin
        set_u16 buf !o asize;
        Bytes.blit t.attrs_scratch 0 buf (!o + 2) asize;
        o := !o + 2 + asize;
        List.iter (fun p -> o := write_prefix buf !o p) (List.rev nlri_rev)
      end
      else begin
        set_u16 buf !o 0;
        o := !o + 2
      end;
      msgs :=
        { bytes = Bytes.sub buf 0 len; announced = n_n; withdrawn = n_w }
        :: !msgs
    in
    let rec go withdrawn nlri =
      match (withdrawn, nlri) with
      | [], [] -> ()
      | _ ->
          let w_rev, n_w, w_bytes, w_rest = take budget withdrawn in
          (* NLRI rides along only once every withdrawal has been
             placed (coalesced into the leading messages). *)
          let n_rev, n_n, n_bytes, n_rest =
            if w_rest = [] then take (budget - w_bytes - asize) nlri
            else ([], 0, 0, nlri)
          in
          emit ~withdrawn_rev:w_rev ~n_w ~w_bytes ~nlri_rev:n_rev ~n_n ~n_bytes;
          go w_rest n_rest
    in
    go withdrawn nlri;
    List.rev !msgs
end

let equal a b =
  match (a, b) with
  | Keepalive, Keepalive -> true
  | Notification x, Notification y -> x.code = y.code && x.subcode = y.subcode
  | Open x, Open y ->
      x.asn = y.asn && x.hold_time_s = y.hold_time_s && Ipv4.equal x.bgp_id y.bgp_id
  | Update x, Update y ->
      List.equal Prefix.equal x.withdrawn y.withdrawn
      && Option.equal
           (fun (aa, an) (ba, bn) ->
             attrs_equal aa ba && List.equal Prefix.equal an bn)
           x.reach y.reach
  | (Keepalive | Notification _ | Open _ | Update _), _ -> false

let pp fmt = function
  | Keepalive -> Format.pp_print_string fmt "KEEPALIVE"
  | Notification { code; subcode } ->
      Format.fprintf fmt "NOTIFICATION %d/%d" code subcode
  | Open o ->
      Format.fprintf fmt "OPEN as=%d hold=%ds id=%a" o.asn o.hold_time_s Ipv4.pp
        o.bgp_id
  | Update u ->
      let pp_prefixes fmt ps =
        Format.pp_print_list
          ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
          Prefix.pp fmt ps
      in
      Format.fprintf fmt "UPDATE";
      if u.withdrawn <> [] then
        Format.fprintf fmt " withdraw[%a]" pp_prefixes u.withdrawn;
      match u.reach with
      | Some (attrs, nlri) ->
          Format.fprintf fmt " announce[%a] %a" pp_prefixes nlri pp_attrs attrs
      | None -> ()
