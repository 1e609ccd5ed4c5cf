(* Scheduler fast-path smoke: the down-scaled fault-storm TE scenario
   (timing-wheel timers, demand-driven pollers, FTI fast-forward).

   Gates, failing @bench-smoke (and @runtest with it):
   - wake hints and fast-forward avoid >= 5x of the poller
     invocations: (poller_ticks + poller_ticks_saved) / poller_ticks,
     where ticks + saved is what stepping every poller on every
     increment costs (240,580 on this scenario);
   - determinism: the mode timeline (at/from/to/reason for every
     transition) and the final FIB fingerprint equal the pinned values
     that stepping every poller on every increment produced —
     fast-forward must be invisible to the experiment.

   Writes the run's scheduler stats to the path given as argv(1). *)

module Time = Horse_engine.Time
module Sched = Horse_engine.Sched
module Topology = Horse_topo.Topology
module Fat_tree = Horse_topo.Fat_tree
module Scenario = Horse_core.Scenario
module Plan = Horse_faults.Plan
module Json = Horse_telemetry.Json

let tick_budget = 5.0
let timeline_digest = "71041a86cd265a4e4950c71d87a7da11"
let fib_fingerprint = "0a9e8e63eee7c80d79f89d0181f3255b"

(* The fault_smoke plan: a deterministic flap storm plus a node
   crash/restart, so the run alternates control-plane bursts with the
   quiet FTI windows fast-forward exists for. *)
let plan =
  let ft = Fat_tree.build ~k:4 () in
  let is_switch (n : Topology.node) =
    match n.Topology.kind with
    | Topology.Switch | Topology.Router -> true
    | Topology.Host -> false
  in
  let sites =
    List.filteri
      (fun i _ -> i mod 9 = 0)
      (List.filter_map
         (fun (l : Topology.link) ->
           if l.Topology.link_id < l.Topology.peer then
             let src = Topology.node ft.Fat_tree.topo l.Topology.src in
             let dst = Topology.node ft.Fat_tree.topo l.Topology.dst in
             if is_switch src && is_switch dst then
               Some (src.Topology.name, dst.Topology.name)
             else None
           else None)
         (Topology.links ft.Fat_tree.topo))
  in
  let victim = ft.Fat_tree.aggs.(2).(0).Topology.name in
  let storm =
    Plan.flap_storm ~seed:5 ~sites ~start:(Time.of_sec 5.0)
      ~stop:(Time.of_sec 15.0) ~period:(Time.of_sec 4.0)
      ~down_for:(Time.of_sec 1.0) ()
  in
  {
    storm with
    Plan.events =
      [
        { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash victim };
        { Plan.at = Time.of_sec 12.0; action = Plan.Node_restart victim };
      ];
  }

let run () =
  Scenario.run_fat_tree_te ~pods:4 ~te:Scenario.Bgp_ecmp ~faults:plan
    ~duration:(Time.of_sec 20.0) ()

(* One line per transition: virtual us, from, to, reason. *)
let timeline_hex (r : Scenario.result) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (tr : Sched.transition) ->
               Printf.sprintf "%d %s %s %s" (Time.to_us tr.Sched.at)
                 (Sched.mode_to_string tr.Sched.from_mode)
                 (Sched.mode_to_string tr.Sched.to_mode)
                 tr.Sched.reason)
             r.Scenario.sched_stats.Sched.transitions)))

let run_json (r : Scenario.result) =
  let s = r.Scenario.sched_stats in
  Json.Obj
    [
      ("poller_ticks", Json.Int s.Sched.poller_ticks);
      ("poller_ticks_saved", Json.Int s.Sched.poller_ticks_saved);
      ("fti_increments", Json.Int s.Sched.fti_increments);
      ("fti_increments_skipped", Json.Int s.Sched.fti_increments_skipped);
      ("transitions", Json.Int (List.length s.Sched.transitions));
      ("run_wall_s", Json.Float r.Scenario.run_wall_s);
      ( "fib_fingerprint",
        match r.Scenario.fib_fingerprint with
        | Some f -> Json.String f
        | None -> Json.Null );
    ]

let () =
  let out = Sys.argv.(1) in
  let r = run () in
  let s = r.Scenario.sched_stats in
  let stepped = s.Sched.poller_ticks + s.Sched.poller_ticks_saved in
  let ratio =
    float_of_int stepped /. float_of_int (max 1 s.Sched.poller_ticks)
  in
  let digest = timeline_hex r in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("run", run_json r);
            ("tick_reduction", Json.Float ratio);
            ("timeline_digest", Json.String digest);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "sched-smoke: poller ticks %d of %d (%.1fx avoided), %d/%d increments \
     fast-forwarded, wall %.3fs\n"
    s.Sched.poller_ticks stepped ratio s.Sched.fti_increments_skipped
    s.Sched.fti_increments r.Scenario.run_wall_s;
  if ratio < tick_budget then begin
    Printf.eprintf
      "sched-smoke: poller-tick budget missed: %.1fx < %.1fx — wake hints or \
       fast-forward regressed?\n"
      ratio tick_budget;
    exit 1
  end;
  if digest <> timeline_digest then begin
    Printf.eprintf "sched-smoke: mode timeline digest %s, pinned %s\n" digest
      timeline_digest;
    exit 1
  end;
  if r.Scenario.fib_fingerprint <> Some fib_fingerprint then begin
    Printf.eprintf "sched-smoke: final FIB fingerprint %s, pinned %s\n"
      (Option.value r.Scenario.fib_fingerprint ~default:"none")
      fib_fingerprint;
    exit 1
  end
