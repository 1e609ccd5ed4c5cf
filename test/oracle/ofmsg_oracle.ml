(* The Result-style [Ofmsg.decode], with the [ofp_match] and action
   readers it calls: a reference for differential tests of the
   direct-style decoder. *)

open Horse_net
open Horse_openflow
open Result_wire

module Action_reader = struct
  open Action

  let read buf off =
    let* type_ = u16 buf off in
    if type_ <> 0 then Error (Printf.sprintf "ofp_action: unsupported type %d" type_)
    else
      let* len = u16 buf (off + 2) in
      if len <> 8 then Error "ofp_action: bad length"
      else
        let* port = u16 buf (off + 4) in
        let* max_len = u16 buf (off + 6) in
        let action =
          if port = port_flood then Flood
          else if port = port_controller then To_controller max_len
          else Output port
        in
        Ok (action, off + 8)

  let read_list buf off ~limit =
    let rec go off acc =
      if off > limit then Error "ofp_action: list overruns"
      else if off = limit then Ok (List.rev acc)
      else
        let* a, off' = read buf off in
        go off' (a :: acc)
    in
    go off []
end

module Ofmatch_reader = struct
  open Ofmatch

  let fw_in_port = 1 lsl 0
  let fw_dl_src = 1 lsl 2
  let fw_dl_dst = 1 lsl 3
  let fw_dl_type = 1 lsl 4
  let fw_nw_proto = 1 lsl 5
  let fw_tp_src = 1 lsl 6
  let fw_tp_dst = 1 lsl 7
  let fw_nw_src_shift = 8
  let fw_nw_dst_shift = 14

  let read buf off =
    let* wildcards = u32_int buf off in
    let has bit = wildcards land bit = 0 in
    let* in_port = u16 buf (off + 4) in
    let* eth_src = mac buf (off + 6) in
    let* eth_dst = mac buf (off + 12) in
    let* eth_type = u16 buf (off + 22) in
    let* ip_proto = u8 buf (off + 25) in
    let* ip_src = ipv4 buf (off + 28) in
    let* ip_dst = ipv4 buf (off + 32) in
    let* tp_src = u16 buf (off + 36) in
    let* tp_dst = u16 buf (off + 38) in
    let nw_prefix shift addr =
      let bits = (wildcards lsr shift) land 0x3F in
      if bits >= 32 then None else Some (Prefix.make addr (32 - bits))
    in
    Ok
      {
        m_in_port = (if has fw_in_port then Some in_port else None);
        m_eth_src = (if has fw_dl_src then Some eth_src else None);
        m_eth_dst = (if has fw_dl_dst then Some eth_dst else None);
        m_eth_type = (if has fw_dl_type then Some eth_type else None);
        m_ip_src = nw_prefix fw_nw_src_shift ip_src;
        m_ip_dst = nw_prefix fw_nw_dst_shift ip_dst;
        m_ip_proto = (if has fw_nw_proto then Some ip_proto else None);
        m_tp_src = (if has fw_tp_src then Some tp_src else None);
        m_tp_dst = (if has fw_tp_dst then Some tp_dst else None);
      }
end

open Ofmsg

let header_size = 8

let u64 buf off =
  let* hi = u32_int buf off in
  let* lo = u32_int buf (off + 4) in
  Ok ((hi lsl 32) lor lo)

let command_of_code = function
  | 0 -> Ok Add
  | 1 -> Ok Modify
  | 3 -> Ok Delete
  | n -> Error (Printf.sprintf "openflow: flow_mod command %d unsupported" n)

(* OFPSF_REPLY_MORE, read once the entries have parsed. *)
let reply_more buf off =
  let* flags = u16 buf (off + 2) in
  Ok (flags land 1 <> 0)

let decode buf =
  let* version = u8 buf 0 in
  if version <> 0x01 then Error (Printf.sprintf "openflow: version 0x%02x" version)
  else
    let* type_ = u8 buf 1 in
    let* len = u16 buf 2 in
    if len <> Bytes.length buf then Error "openflow: length field mismatch"
    else
      let* xid = u32_int buf 4 in
      let off = header_size in
      let* msg =
        match type_ with
        | 0 -> Ok Hello
        | 2 -> Ok Echo_request
        | 3 -> Ok Echo_reply
        | 5 -> Ok Features_request
        | 18 -> Ok Barrier_request
        | 19 -> Ok Barrier_reply
        | 6 ->
            let* dpid = u64 buf off in
            let* n_ports = u32_int buf (off + 12) in
            Ok (Features_reply { dpid; n_ports })
        | 12 ->
            let* pst_reason = u8 buf off in
            let* pst_port = u16 buf (off + 8) in
            Ok (Port_status { pst_reason; pst_port })
        | 10 ->
            let* buffer_id = u32_int buf off in
            let* total_len = u16 buf (off + 4) in
            let* in_port = u16 buf (off + 6) in
            let* reason = u8 buf (off + 8) in
            let* data = bytes (len - off - 10) buf (off + 10) in
            Ok (Packet_in { buffer_id; total_len; in_port; reason; data })
        | 13 ->
            let* po_in_port = u16 buf (off + 4) in
            let* actions_len = u16 buf (off + 6) in
            let* po_actions =
              Action_reader.read_list buf (off + 8) ~limit:(off + 8 + actions_len)
            in
            let data_off = off + 8 + actions_len in
            let* po_data = bytes (len - data_off) buf data_off in
            Ok (Packet_out { po_in_port; po_actions; po_data })
        | 14 ->
            let* match_ = Ofmatch_reader.read buf off in
            let o = off + Ofmatch.size in
            let* cookie = u64 buf o in
            let* cmd = u16 buf (o + 8) in
            let* command = command_of_code cmd in
            let* idle_timeout_s = u16 buf (o + 10) in
            let* hard_timeout_s = u16 buf (o + 12) in
            let* priority = u16 buf (o + 14) in
            let* actions = Action_reader.read_list buf (o + 24) ~limit:len in
            Ok
              (Flow_mod
                 {
                   match_;
                   cookie;
                   command;
                   idle_timeout_s;
                   hard_timeout_s;
                   priority;
                   actions;
                 })
        | 16 -> (
            let* stype = u16 buf off in
            match stype with
            | 1 ->
                let* m = Ofmatch_reader.read buf (off + 4) in
                Ok (Stats_request (Flow_stats_req m))
            | 4 ->
                let* port = u16 buf (off + 4) in
                Ok (Stats_request (Port_stats_req port))
            | n -> Error (Printf.sprintf "openflow: stats type %d unsupported" n))
        | 17 -> (
            let* stype = u16 buf off in
            match stype with
            | 1 ->
                let rec go o acc =
                  if o > len then Error "openflow: flow stats overrun"
                  else if o = len then Ok (List.rev acc)
                  else
                    let* entry_len = u16 buf o in
                    if entry_len < 44 + Ofmatch.size + 4 then
                      Error "openflow: flow stats entry too short"
                    else
                      let* fs_match = Ofmatch_reader.read buf (o + 4) in
                      let p = o + 4 + Ofmatch.size in
                      let* fs_duration_s = u32_int buf p in
                      let* fs_priority = u16 buf (p + 8) in
                      let* fs_cookie = u64 buf (p + 20) in
                      let* fs_packets = u64 buf (p + 28) in
                      let* fs_bytes = u64 buf (p + 36) in
                      let* fs_actions =
                        Action_reader.read_list buf (p + 44) ~limit:(o + entry_len)
                      in
                      go (o + entry_len)
                        ({
                           fs_match;
                           fs_priority;
                           fs_cookie;
                           fs_packets;
                           fs_bytes;
                           fs_duration_s;
                           fs_actions;
                         }
                        :: acc)
                in
                let* entries = go (off + 4) [] in
                let* more = reply_more buf off in
                Ok (Stats_reply { reply = Flow_stats_rep entries; more })
            | 4 ->
                let rec go o acc =
                  if o > len then Error "openflow: port stats overrun"
                  else if o = len then Ok (List.rev acc)
                  else
                    let* ps_port = u16 buf o in
                    let* ps_rx_packets = u64 buf (o + 8) in
                    let* ps_tx_packets = u64 buf (o + 16) in
                    let* ps_rx_bytes = u64 buf (o + 24) in
                    let* ps_tx_bytes = u64 buf (o + 32) in
                    go (o + 40)
                      ({ ps_port; ps_rx_packets; ps_tx_packets; ps_rx_bytes; ps_tx_bytes }
                      :: acc)
                in
                let* entries = go (off + 4) [] in
                let* more = reply_more buf off in
                Ok (Stats_reply { reply = Port_stats_rep entries; more })
            | n -> Error (Printf.sprintf "openflow: stats type %d unsupported" n))
        | n -> Error (Printf.sprintf "openflow: message type %d unsupported" n)
      in
      Ok (msg, xid)
