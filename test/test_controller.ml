(* Tests for horse_controller: framework handshake and request
   correlation, Hedera demand estimation, flow placement, and the
   reactive ECMP / learning applications. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_topo
open Horse_openflow
open Horse_controller

let check = Alcotest.check
let ip = Ipv4.of_string_exn

(* --- rig: a controller wired to n switch agents ------------------------- *)

type rig = {
  sched : Sched.t;
  ctrl : Controller.t;
  agents : Switch.t list;
}

let make_rig ~dpids_ports =
  let sched = Sched.create () in
  let ctrl = Controller.create (Process.create sched ~name:"ctrl") in
  let agents =
    List.map
      (fun (dpid, ports) ->
        let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
        let sw_end, ctrl_end = Channel.endpoints chan in
        let agent =
          Switch.create (Process.create sched ~name:"sw") ~dpid ~ports sw_end
        in
        Switch.start agent;
        Controller.connect ctrl ctrl_end;
        agent)
      dpids_ports
  in
  { sched; ctrl; agents }

let test_handshake_and_lookup () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10) ]); (2, [ (1, 20) ]) ] in
  let ups = ref [] in
  Controller.on_switch_up rig.ctrl (fun sw -> ups := Controller.dpid sw :: !ups);
  ignore (Sched.run ~until:(Time.of_ms 100) rig.sched);
  check Alcotest.int "both up" 2 (List.length (Controller.switches rig.ctrl));
  check (Alcotest.list Alcotest.int) "up hooks fired" [ 1; 2 ] (List.sort compare !ups);
  check Alcotest.bool "by dpid" true (Controller.switch_by_dpid rig.ctrl 2 <> None);
  check Alcotest.bool "unknown dpid" true (Controller.switch_by_dpid rig.ctrl 9 = None)

let test_stats_correlation () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10); (2, 11) ]) ] in
  let agent = List.hd rig.agents in
  Switch.set_port_stats_provider agent (fun port ->
      {
        Ofmsg.ps_port = port;
        ps_rx_packets = port * 10;
        ps_tx_packets = 0;
        ps_rx_bytes = 0;
        ps_tx_bytes = port * 1000;
      });
  let flow_replies = ref [] and port_replies = ref [] and barriers = ref 0 in
  ignore (Sched.run ~until:(Time.of_ms 20) rig.sched);
  let sw = Option.get (Controller.switch_by_dpid rig.ctrl 1) in
  ignore
    (Sched.schedule_at rig.sched (Time.of_ms 30) (fun () ->
         Controller.request_flow_stats rig.ctrl sw (fun entries ->
             flow_replies := entries :: !flow_replies);
         Controller.request_port_stats rig.ctrl sw (fun entries ->
             port_replies := entries :: !port_replies);
         Controller.barrier rig.ctrl sw (fun () -> incr barriers)));
  ignore (Sched.run ~until:(Time.of_ms 200) rig.sched);
  check Alcotest.int "flow reply" 1 (List.length !flow_replies);
  check Alcotest.int "port reply" 1 (List.length !port_replies);
  check Alcotest.int "barrier" 1 !barriers;
  match !port_replies with
  | [ entries ] ->
      check Alcotest.int "two ports" 2 (List.length entries);
      check Alcotest.bool "provider data" true
        (List.exists (fun e -> e.Ofmsg.ps_tx_bytes = 2000) entries)
  | _ -> Alcotest.fail "missing port stats"

(* 800 flow entries encode to a 70,412-byte reply, past the 16-bit
   length field: the switch splits it into OFPSF_REPLY_MORE parts and
   the controller hands the whole list to the callback once. *)
let test_flow_stats_reply_split () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10) ]) ] in
  let agent = List.hd rig.agents in
  let n = 800 in
  for i = 0 to n - 1 do
    Flow_table.apply_flow_mod (Switch.table agent) ~now:Time.zero
      {
        Ofmsg.match_ =
          Ofmatch.to_dst
            (Prefix.host (Ipv4.of_int32 (Int32.of_int (0x0A000000 + i))));
        cookie = i;
        command = Ofmsg.Add;
        idle_timeout_s = 0;
        hard_timeout_s = 0;
        priority = 1;
        actions = [];
      }
  done;
  let replies = ref [] in
  ignore (Sched.run ~until:(Time.of_ms 20) rig.sched);
  let sw = Option.get (Controller.switch_by_dpid rig.ctrl 1) in
  ignore
    (Sched.schedule_at rig.sched (Time.of_ms 30) (fun () ->
         Controller.request_flow_stats rig.ctrl sw (fun entries ->
             replies := entries :: !replies)));
  ignore (Sched.run ~until:(Time.of_ms 200) rig.sched);
  match !replies with
  | [ entries ] ->
      check Alcotest.int "all entries" n (List.length entries);
      check (Alcotest.list Alcotest.int) "every cookie once"
        (List.init n Fun.id)
        (List.sort compare (List.map (fun e -> e.Ofmsg.fs_cookie) entries))
  | l -> Alcotest.failf "expected one flow-stats callback, got %d" (List.length l)

let test_flow_mod_reaches_switch () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10) ]) ] in
  ignore (Sched.run ~until:(Time.of_ms 20) rig.sched);
  let sw = Option.get (Controller.switch_by_dpid rig.ctrl 1) in
  ignore
    (Sched.schedule_at rig.sched (Time.of_ms 30) (fun () ->
         Controller.send_flow_mod rig.ctrl sw
           {
             Ofmsg.match_ = Ofmatch.any;
             cookie = 0;
             command = Ofmsg.Add;
             idle_timeout_s = 0;
             hard_timeout_s = 0;
             priority = 1;
             actions = [ Action.Output 1 ];
           }));
  ignore (Sched.run ~until:(Time.of_ms 100) rig.sched);
  check Alcotest.int "installed" 1 (Flow_table.size (Switch.table (List.hd rig.agents)))

(* --- Demand estimation ---------------------------------------------------- *)

let demands flows =
  List.map (fun (f, d) -> (f.Demand.src, f.Demand.dst, d)) (Demand.estimate flows)

let test_demand_single_flow () =
  match demands [ { Demand.src = 0; dst = 1; tag = 0 } ] with
  | [ (0, 1, d) ] -> check (Alcotest.float 1e-9) "full NIC" 1.0 d
  | _ -> Alcotest.fail "unexpected shape"

let test_demand_sender_limited () =
  let flows =
    [ { Demand.src = 0; dst = 1; tag = 0 }; { Demand.src = 0; dst = 2; tag = 1 } ]
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "half each" 0.5 d)
    (demands flows)

let test_demand_receiver_limited () =
  let flows =
    [ { Demand.src = 0; dst = 2; tag = 0 }; { Demand.src = 1; dst = 2; tag = 1 } ]
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "receiver split" 0.5 d)
    (demands flows)

let test_demand_mixed () =
  (* A->B, A->C, B->C: sources split, C receives 2 flows.
     Fixpoint: all flows 0.5. *)
  let flows =
    [
      { Demand.src = 0; dst = 1; tag = 0 };
      { Demand.src = 0; dst = 2; tag = 1 };
      { Demand.src = 1; dst = 2; tag = 2 };
    ]
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "balanced" 0.5 d)
    (demands flows)

let test_demand_asymmetric () =
  (* Host 0 sends 3 flows to distinct hosts; one of those hosts also
     receives from host 4. Flows from 0: 1/3 each. Receiver 1 gets
     1/3 + flow from 4 (which can send 1.0 but receiver cap lets it
     have 2/3). *)
  let flows =
    [
      { Demand.src = 0; dst = 1; tag = 0 };
      { Demand.src = 0; dst = 2; tag = 1 };
      { Demand.src = 0; dst = 3; tag = 2 };
      { Demand.src = 4; dst = 1; tag = 3 };
    ]
  in
  let result = demands flows in
  List.iter
    (fun (src, dst, d) ->
      match (src, dst) with
      | 0, _ -> check (Alcotest.float 1e-6) "from 0: third" (1.0 /. 3.0) d
      | 4, 1 -> check (Alcotest.float 1e-6) "from 4: remainder" (2.0 /. 3.0) d
      | _ -> Alcotest.fail "unexpected flow")
    result

let test_demand_permutation_saturates () =
  (* A derangement workload: every host sends one and receives one
     flow -> every demand is the full NIC. *)
  let n = 16 in
  let flows =
    List.init n (fun i -> { Demand.src = i; dst = (i + 1) mod n; tag = i })
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "full rate" 1.0 d)
    (demands flows)

let test_big_flows_threshold () =
  let estimated =
    [
      ({ Demand.src = 0; dst = 1; tag = 0 }, 0.05);
      ({ Demand.src = 0; dst = 2; tag = 1 }, 0.10);
      ({ Demand.src = 0; dst = 3; tag = 2 }, 0.90);
    ]
  in
  check Alcotest.int "default threshold keeps >= 0.1" 2
    (List.length (Demand.big_flows estimated));
  check Alcotest.int "custom threshold" 1
    (List.length (Demand.big_flows ~threshold:0.5 estimated))

(* --- Placement -------------------------------------------------------------- *)

(* Two disjoint 1 Gbps paths represented by fabricated links. *)
let diamond_paths () =
  let topo = Topology.create () in
  let a = Topology.add_node topo Topology.Switch in
  let up = Topology.add_node topo Topology.Switch in
  let down = Topology.add_node topo Topology.Switch in
  let b = Topology.add_node topo Topology.Switch in
  let l1, _ = Topology.add_duplex topo ~capacity:1e9 a up in
  let l2, _ = Topology.add_duplex topo ~capacity:1e9 up b in
  let l3, _ = Topology.add_duplex topo ~capacity:1e9 a down in
  let l4, _ = Topology.add_duplex topo ~capacity:1e9 down b in
  (topo, [ l1; l2 ], [ l3; l4 ])

let capacity_1g _ = 1e9

let test_gff_spreads () =
  let _, path_up, path_down = diamond_paths () in
  let requests =
    [
      { Placer.tag = 0; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
      { Placer.tag = 1; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
    ]
  in
  match Placer.global_first_fit ~capacity:capacity_1g requests with
  | [ { Placer.p_tag = 0; path = Some p0 }; { Placer.p_tag = 1; path = Some p1 } ]
    ->
      check Alcotest.bool "first takes first path" true (p0 == path_up);
      check Alcotest.bool "second spills to second path" true (p1 == path_down)
  | _ -> Alcotest.fail "unexpected placement"

let test_gff_no_fit () =
  let _, path_up, _ = diamond_paths () in
  let requests =
    [
      { Placer.tag = 0; demand_bps = 0.9e9; candidates = [ path_up ] };
      { Placer.tag = 1; demand_bps = 0.9e9; candidates = [ path_up ] };
    ]
  in
  match Placer.global_first_fit ~capacity:capacity_1g requests with
  | [ { Placer.path = Some _; _ }; { Placer.path = None; _ } ] -> ()
  | _ -> Alcotest.fail "second flow should not fit"

let test_oversubscription () =
  let _, path_up, path_down = diamond_paths () in
  check (Alcotest.float 1.0) "no overload" 0.0
    (Placer.oversubscription ~capacity:capacity_1g
       [ (0.8e9, path_up); (0.8e9, path_down) ]);
  (* Both on the same path: 0.6 Gbps excess on each of 2 links. *)
  check (Alcotest.float 1.0) "overload measured" 1.2e9
    (Placer.oversubscription ~capacity:capacity_1g
       [ (0.8e9, path_up); (0.8e9, path_up) ])

let test_annealing_finds_spread () =
  let _, path_up, path_down = diamond_paths () in
  let requests =
    [
      { Placer.tag = 0; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
      { Placer.tag = 1; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
      { Placer.tag = 2; demand_bps = 0.1e9; candidates = [ path_up; path_down ] };
    ]
  in
  let placements =
    Placer.annealing ~capacity:capacity_1g ~rng:(Rng.create 1) requests
  in
  let assignment =
    List.map
      (fun (pl : Placer.placement) ->
        (pl.Placer.p_tag, Option.get pl.Placer.path))
      placements
  in
  let energy =
    Placer.oversubscription ~capacity:capacity_1g
      (List.map
         (fun (tag, path) ->
           let r = List.nth requests tag in
           (r.Placer.demand_bps, path))
         assignment)
  in
  check (Alcotest.float 1.0) "annealing reaches zero oversubscription" 0.0 energy;
  (* Determinism. *)
  let placements' =
    Placer.annealing ~capacity:capacity_1g ~rng:(Rng.create 1) requests
  in
  check Alcotest.bool "deterministic with equal seed" true
    (List.for_all2
       (fun (a : Placer.placement) (b : Placer.placement) ->
         a.Placer.p_tag = b.Placer.p_tag
         && Option.equal ( == ) a.Placer.path b.Placer.path)
       placements placements')

(* --- App_ecmp ---------------------------------------------------------------- *)

let test_select_path_pure () =
  let _, path_up, path_down = diamond_paths () in
  let key =
    Flow_key.make ~src:(ip "10.0.0.2") ~dst:(ip "10.1.0.2") ~src_port:1 ~dst_port:2 ()
  in
  check Alcotest.bool "none on empty" true
    (App_ecmp.select_path App_ecmp.Five_tuple key [] = None);
  let candidates = [ path_up; path_down ] in
  let chosen = App_ecmp.select_path App_ecmp.Five_tuple key candidates in
  check Alcotest.bool "chooses a candidate" true
    (match chosen with Some c -> List.memq c candidates | None -> false);
  check Alcotest.bool "deterministic" true
    (App_ecmp.select_path App_ecmp.Five_tuple key candidates = chosen);
  (* src/dst mode must ignore port changes. *)
  let key' = { key with Flow_key.src_port = 999 } in
  check Alcotest.bool "src_dst ignores ports" true
    (App_ecmp.select_path App_ecmp.Src_dst key candidates
    = App_ecmp.select_path App_ecmp.Src_dst key' candidates)

(* Single-switch environment: h0 - s0 - h1. *)
let mini_env_rig () =
  let topo = Topology.create () in
  let h0 = Topology.add_node topo ~ip:(ip "10.0.0.1") Topology.Host in
  let s0 = Topology.add_node topo Topology.Switch in
  let h1 = Topology.add_node topo ~ip:(ip "10.0.0.2") Topology.Host in
  ignore (Topology.add_duplex topo ~capacity:1e9 h0 s0);
  ignore (Topology.add_duplex topo ~capacity:1e9 s0 h1);
  let ports =
    List.mapi (fun i (l : Topology.link) -> (i + 1, l.Topology.link_id))
      (Topology.out_links topo s0.Topology.id)
  in
  let sched = Sched.create () in
  let ctrl = Controller.create (Process.create sched ~name:"ctrl") in
  let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
  let sw_end, ctrl_end = Channel.endpoints chan in
  let agent =
    Switch.create (Process.create sched ~name:"sw") ~dpid:s0.Topology.id ~ports
      sw_end
  in
  Switch.start agent;
  Controller.connect ctrl ctrl_end;
  let env =
    Env.create ~topo
      ~dpid_of_node:(fun n -> if n = s0.Topology.id then Some n else None)
      ~node_of_dpid:(fun d -> Some d)
      ~port_of_link:(fun l ->
        List.find_map (fun (p, l') -> if l = l' then Some p else None) ports)
      ()
  in
  (sched, ctrl, agent, env, topo, h0, h1)

let test_env_helpers () =
  let _, _, _, env, _, h0, h1 = mini_env_rig () in
  check (Alcotest.option Alcotest.int) "host_of_ip" (Some h0.Topology.id)
    (Env.host_of_ip env (ip "10.0.0.1"));
  check (Alcotest.option Alcotest.int) "edge switch" (Some 1)
    (Env.edge_switch_of_host env h0.Topology.id);
  check (Alcotest.list Alcotest.int) "edge dpids" [ 1 ] (Env.edge_dpids env);
  let paths = Env.ecmp_paths env ~src:h0.Topology.id ~dst:h1.Topology.id in
  check Alcotest.int "one path" 1 (List.length paths)

let test_app_ecmp_reactive () =
  let sched, ctrl, agent, env, _, _, _ = mini_env_rig () in
  let app = App_ecmp.install ctrl env in
  let packet_outs = ref 0 in
  Switch.on_packet_out agent (fun _ -> incr packet_outs);
  (* Let the handshake finish, then raise a packet_in with a real
     frame. *)
  let key =
    Flow_key.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1234
      ~dst_port:80 ()
  in
  let frame =
    Packet.encode
      (Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
         ~src:key.Flow_key.src ~dst:key.Flow_key.dst
         ~src_port:key.Flow_key.src_port ~dst_port:key.Flow_key.dst_port
         (Bytes.make 10 'x'))
  in
  ignore
    (Sched.schedule_at sched (Time.of_ms 20) (fun () ->
         Switch.packet_in agent ~in_port:1 frame));
  ignore (Sched.run ~until:(Time.of_ms 200) sched);
  check Alcotest.int "flow routed" 1 (App_ecmp.flows_routed app);
  check Alcotest.bool "path recorded" true (App_ecmp.path_of app key <> None);
  check Alcotest.int "entry installed" 1 (Flow_table.size (Switch.table agent));
  check Alcotest.int "packet released" 1 !packet_outs;
  (* The installed entry must output towards h1 (port 2 = the second
     out-link of s0). *)
  match Flow_table.lookup (Switch.table agent) (Ofmatch.fields_of_key key) with
  | Some e ->
      check Alcotest.bool "outputs towards h1" true
        (List.exists (fun a -> Action.equal a (Action.Output 2)) e.Flow_table.actions)
  | None -> Alcotest.fail "flow entry missing"

let test_app_learning () =
  let sched, ctrl, agent, _, _, _, _ = mini_env_rig () in
  let app = App_learning.install ctrl in
  let mac_a = Mac.of_index 11 and mac_b = Mac.of_index 22 in
  let frame ~src ~dst =
    Packet.encode
      (Packet.udp ~src_mac:src ~dst_mac:dst ~src:(ip "10.0.0.1")
         ~dst:(ip "10.0.0.2") ~src_port:1 ~dst_port:2 Bytes.empty)
  in
  ignore
    (Sched.schedule_at sched (Time.of_ms 20) (fun () ->
         Switch.packet_in agent ~in_port:1 (frame ~src:mac_a ~dst:mac_b)));
  ignore (Sched.run ~until:(Time.of_ms 50) sched);
  (* Unknown destination: flooded, mac_a learned on port 1. *)
  check Alcotest.int "flooded" 1 (App_learning.floods app);
  check (Alcotest.option Alcotest.int) "learned" (Some 1)
    (App_learning.lookup app ~dpid:1 mac_a);
  ignore
    (Sched.schedule_at sched (Time.of_ms 60) (fun () ->
         Switch.packet_in agent ~in_port:2 (frame ~src:mac_b ~dst:mac_a)));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  (* Known destination: unicast flow-mod installed. *)
  check Alcotest.int "unicast" 1 (App_learning.unicasts app);
  check Alcotest.int "two macs" 2 (App_learning.macs_learned app);
  check Alcotest.int "entry installed" 1 (Flow_table.size (Switch.table agent))

let () =
  Alcotest.run "horse_controller"
    [
      ( "framework",
        [
          Alcotest.test_case "handshake" `Quick test_handshake_and_lookup;
          Alcotest.test_case "stats correlation" `Quick test_stats_correlation;
          Alcotest.test_case "flow mod delivery" `Quick test_flow_mod_reaches_switch;
          Alcotest.test_case "flow stats reply over 64 KiB" `Quick
            test_flow_stats_reply_split;
        ] );
      ( "demand",
        [
          Alcotest.test_case "single flow" `Quick test_demand_single_flow;
          Alcotest.test_case "sender limited" `Quick test_demand_sender_limited;
          Alcotest.test_case "receiver limited" `Quick test_demand_receiver_limited;
          Alcotest.test_case "mixed" `Quick test_demand_mixed;
          Alcotest.test_case "asymmetric" `Quick test_demand_asymmetric;
          Alcotest.test_case "permutation saturates" `Quick
            test_demand_permutation_saturates;
          Alcotest.test_case "big flow threshold" `Quick test_big_flows_threshold;
        ] );
      ( "placer",
        [
          Alcotest.test_case "gff spreads" `Quick test_gff_spreads;
          Alcotest.test_case "gff no fit" `Quick test_gff_no_fit;
          Alcotest.test_case "oversubscription" `Quick test_oversubscription;
          Alcotest.test_case "annealing" `Quick test_annealing_finds_spread;
        ] );
      ( "apps",
        [
          Alcotest.test_case "select_path pure" `Quick test_select_path_pure;
          Alcotest.test_case "env helpers" `Quick test_env_helpers;
          Alcotest.test_case "ecmp reactive" `Quick test_app_ecmp_reactive;
          Alcotest.test_case "learning switch" `Quick test_app_learning;
        ] );
    ]
