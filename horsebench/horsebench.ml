(* The measuring side of the Horse benchmark. [run.py] builds this
   program, runs it and checks what it prints.

   One invocation runs one workload, generated from a seed, for a
   wall-time budget through the public scenario entry points that
   [horse te] and [horse megauser] call. It prints one JSON object:
   setup-only probes, one record per repetition (setup and run wall
   time, allocation, output fingerprints, per-layer counters) and the
   process's peak heap.

   usage: horsebench.exe WORKLOAD SEED SECONDS MODE MIN_REPS SPANS_OUT

   MODE is [plain] (scheduler self-profiler off, no harness spans) or
   [traced] (self-profiler on; the harness records a span around each
   call it makes into a layer, keeps them in memory and writes them
   with the last repetition's telemetry registry to SPANS_OUT at the
   end). *)

open Horse_engine
open Horse_topo
module Scenario = Horse_core.Scenario
module Plan = Horse_faults.Plan
module Injector = Horse_faults.Injector
module Json = Horse_telemetry.Json
module Registry = Horse_telemetry.Registry
module Histogram = Horse_telemetry.Histogram

(* --- harness spans ------------------------------------------------- *)

type span = {
  sp_name : string;
  sp_parent : int;  (* index of the enclosing span, -1 at the root *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_minor_words : float;
}

let tracing = ref false
let spans : span list ref = ref [] (* newest first *)
let n_spans = ref 0
let open_spans : int list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        sp_name = name;
        sp_parent = (match !open_spans with i :: _ -> i | [] -> -1);
        sp_start = Wall.now ();
        sp_stop = Float.nan;
        sp_minor_words = Gc.minor_words ();
      }
    in
    open_spans := !n_spans :: !open_spans;
    incr n_spans;
    spans := s :: !spans;
    Fun.protect f ~finally:(fun () ->
        s.sp_stop <- Wall.now ();
        s.sp_minor_words <- Gc.minor_words () -. s.sp_minor_words;
        open_spans := List.tl !open_spans)
  end

let timed name f =
  let t0 = Wall.now () in
  let r = span name f in
  (r, Wall.now () -. t0)

(* --- allocation ---------------------------------------------------- *)

type gc = { minor : float; promoted : float; major : float; collections : int }

let gc_zero = { minor = 0.0; promoted = 0.0; major = 0.0; collections = 0 }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    collections = s.Gc.major_collections;
  }

let gc_diff b a =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    major = b.major -. a.major;
    collections = b.collections - a.collections;
  }

let gc_add a b =
  {
    minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted;
    major = a.major +. b.major;
    collections = a.collections + b.collections;
  }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f]'s result, allocation and process CPU seconds. *)
let measured f =
  let g0 = gc_now () and c0 = cpu_now () in
  let r = f () in
  let c1 = cpu_now () in
  (r, gc_diff (gc_now ()) g0, c1 -. c0)

(* Words the program asked for: minor allocations plus direct major
   allocations (promotions are minor words moved, not new words). *)
let alloc_words g = g.minor +. g.major -. g.promoted

let gc_json g =
  Json.Obj
    [
      ("minor_words", Json.Float g.minor);
      ("promoted_words", Json.Float g.promoted);
      ("alloc_words", Json.Float (alloc_words g));
      ("major_collections", Json.Int g.collections);
    ]

(* --- machine speed --------------------------------------------------- *)

(* On a shared host the hypervisor takes the CPU away in bursts (steal,
   which adds wall time but not CPU time), and other tenants' use of the
   caches and cores slows the same code by up to half for minutes at a
   time, CPU time included; no choice among one run's repetitions makes
   its times steady across runs. A fixed calibration kernel therefore
   runs after the setup probes and after every repetition, and [run.py]
   scales times by the kernel time measured next to them. The kernel
   calls nothing in the libraries under test and allocates nothing on
   the OCaml heap (its tables are bigarrays, outside [top_heap_words]):
   pointer chases over a 4 MB and a 32 MB table, then a run of integer
   arithmetic. *)

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A full-period LCG over [0, n): each entry is the next index to visit. *)
let chase_table n : table =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i (((i * 1103515245) + 12345) land (n - 1))
  done;
  a

let chase (a : table) steps =
  let j = ref 0 and acc = ref 0 in
  for i = 1 to steps do
    j := Bigarray.Array1.unsafe_get a !j;
    acc := (!acc * 31) + (!j lxor i)
  done;
  !acc

let arith steps =
  let acc = ref 1 in
  for i = 1 to steps do
    acc := ((!acc * 1103515245) + i) lxor (!acc lsr 7)
  done;
  !acc

let small_table = lazy (chase_table (1 lsl 19))
let big_table = lazy (chase_table (1 lsl 22))
let calibration_sink = ref 0

(* CPU and wall seconds of one pass of the calibration kernel. *)
let calibrate () =
  let small = Lazy.force small_table and big = Lazy.force big_table in
  let c0 = cpu_now () and t0 = Wall.now () in
  let acc = chase small 1_500_000 + chase big 300_000 + arith 30_000_000 in
  let t = Wall.now () -. t0 and c = cpu_now () -. c0 in
  calibration_sink := !calibration_sink lxor acc;
  (c, t)

(* --- per-layer readings -------------------------------------------- *)

let entries reg name =
  List.filter_map
    (fun (e : Registry.entry) ->
      if String.equal e.Registry.name name then Some e.Registry.metric else None)
    (Registry.to_list reg)

let counter reg name =
  List.fold_left
    (fun acc -> function
      | Registry.M_counter c -> acc +. float_of_int (Registry.Counter.value c)
      | Registry.M_gauge _ | Registry.M_histogram _ -> acc)
    0.0 (entries reg name)

let hist reg name f =
  List.fold_left
    (fun acc -> function
      | Registry.M_histogram h -> acc +. f h
      | Registry.M_counter _ | Registry.M_gauge _ -> acc)
    0.0 (entries reg name)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The scheduler figures, summed when a workload runs several
   schedulers. *)
type engine = {
  events : int;
  poller_ticks : int;
  poller_saved : int;
  fti_increments : int;
  fti_skipped : int;
  transitions : int;
  fti_virtual_s : float;
  fti_wall_s : float;
  des_wall_s : float;
}

let engine_of (s : Sched.stats) =
  {
    events = s.Sched.events_executed;
    poller_ticks = s.Sched.poller_ticks;
    poller_saved = s.Sched.poller_ticks_saved;
    fti_increments = s.Sched.fti_increments;
    fti_skipped = s.Sched.fti_increments_skipped;
    transitions = List.length s.Sched.transitions;
    fti_virtual_s = Time.to_sec s.Sched.virtual_in_fti;
    fti_wall_s = s.Sched.wall_in_fti;
    des_wall_s = s.Sched.wall_in_des;
  }

let engine_add a b =
  {
    events = a.events + b.events;
    poller_ticks = a.poller_ticks + b.poller_ticks;
    poller_saved = a.poller_saved + b.poller_saved;
    fti_increments = a.fti_increments + b.fti_increments;
    fti_skipped = a.fti_skipped + b.fti_skipped;
    transitions = a.transitions + b.transitions;
    fti_virtual_s = a.fti_virtual_s +. b.fti_virtual_s;
    fti_wall_s = a.fti_wall_s +. b.fti_wall_s;
    des_wall_s = a.des_wall_s +. b.des_wall_s;
  }

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Every per-layer metric the benchmark reports, read from outside the
   program: scheduler stats, the registry the layers publish into, the
   causal graph, the fault injector and the harness's own timings.
   [recon] holds each healed fault's virtual reconvergence seconds. *)
let layers ?waterfills ~eng ~reg ~causal_nodes ~causal_dropped ~injected
    ~recon ~build_s ~setup_gc ~run_gc () =
  let i = float_of_int in
  let cnt = counter reg in
  let updates = cnt "horse_bgp_updates_sent_total" in
  let intern_hits = cnt "horse_bgp_attr_intern_hits_total" in
  let micro = cnt "horse_openflow_microflow_hits_total" in
  let mega = cnt "horse_openflow_megaflow_hits_total" in
  let lookups =
    micro +. mega
    +. cnt "horse_openflow_tss_hits_total"
    +. cnt "horse_openflow_lookup_misses_total"
  in
  let recomputes = cnt "horse_fluid_recomputes_total" in
  (* Without the solver's own count (Delta.stats, which only the
     megauser result exposes), count the recomputes that touched at
     least one flow: the histogram's lowest bound is one flow, so the
     others land in its underflow. An upper bound on the water fills. *)
  let waterfills =
    match waterfills with
    | Some n -> n
    | None ->
        hist reg "horse_fluid_recompute_flows" (fun h ->
            float_of_int (Histogram.count h - Histogram.underflow h))
  in
  let mw x = x /. 1e6 in
  [
    ("engine.events", i eng.events);
    ("engine.poller_ticks", i eng.poller_ticks);
    ( "engine.poller_saved_share",
      ratio (i eng.poller_saved) (i (eng.poller_ticks + eng.poller_saved)) );
    ("engine.fti_increments", i eng.fti_increments);
    ("engine.fti_skipped_share", ratio (i eng.fti_skipped) (i eng.fti_increments));
    ("engine.transitions", i eng.transitions);
    ("engine.fti_virtual_s", eng.fti_virtual_s);
    ("engine.fti_wall_s", eng.fti_wall_s);
    ("engine.des_wall_s", eng.des_wall_s);
    ("engine.causal_nodes", i causal_nodes);
    ("engine.causal_dropped", i causal_dropped);
    ("core.cm_messages", cnt "horse_cm_messages_total");
    ("core.cm_bytes", cnt "horse_cm_bytes_total");
    ("emulation.poll_ticks", cnt "horse_emulation_poll_ticks_total");
    ( "emulation.poll_wall_s",
      hist reg "horse_sched_poller_tick_seconds" Histogram.sum );
    ("bgp.updates_sent", updates);
    ("bgp.prefixes_per_update", ratio (cnt "horse_bgp_prefixes_sent_total") updates);
    ("bgp.withdrawn_sent", cnt "horse_bgp_withdrawn_prefixes_sent_total");
    ( "bgp.attr_intern_hit_ratio",
      ratio intern_hits (intern_hits +. cnt "horse_bgp_attrs_interned_total") );
    ("bgp.group_flushes", cnt "horse_bgp_group_flushes_total");
    ("bgp.decode_errors", cnt "horse_bgp_decode_errors_total");
    ("openflow.flow_mods", cnt "horse_openflow_flow_mods_total");
    ("openflow.packet_ins", cnt "horse_openflow_packet_ins_total");
    ("openflow.cache_hit_ratio", ratio (micro +. mega) lookups);
    ("openflow.cache_invalidations", cnt "horse_openflow_cache_invalidations_total");
    ("controller.flow_mods", cnt "horse_controller_flow_mods_total");
    ("controller.packet_ins", cnt "horse_controller_packet_ins_total");
    ("dataplane.recompute_requests", cnt "horse_fluid_recompute_requests_total");
    ("dataplane.recomputes", recomputes);
    ("dataplane.solve_work", cnt "horse_fluid_delta_flows_touched_total");
    ("dataplane.waterfill_share", ratio waterfills recomputes);
    ("dataplane.promotions", cnt "horse_fluid_delta_promotions_total");
    ("dataplane.expansions", cnt "horse_fluid_delta_expansions_total");
    ( "dataplane.solve_wall_s",
      hist reg "horse_fluid_recompute_wall_seconds" Histogram.sum );
    ("faults.injected", i injected);
    ("faults.healed", i (List.length recon));
    ("faults.reconverge_virtual_p50_s", median recon);
    ("topo.build_s", build_s);
    ("gc.setup_minor_mwords", mw setup_gc.minor);
    ("gc.setup_promoted_mwords", mw setup_gc.promoted);
    ("gc.setup_major_collections", i setup_gc.collections);
    ("gc.run_minor_mwords", mw run_gc.minor);
    ("gc.run_promoted_mwords", mw run_gc.promoted);
    ("gc.run_major_collections", i run_gc.collections);
  ]

(* --- workloads ----------------------------------------------------- *)

type rep = {
  setup_s : float;
  parts : (float * float) list;
      (** run wall seconds and process CPU seconds (setup and run) of each
          independent experiment in the repetition: one for a fat-tree,
          one per WAN of a megauser batch *)
  setup_gc : gc;
  run_gc : gc;
  ops : int;  (** flows or flow classes started, plus faults injected *)
  ops_failed : int;  (** flows never routed plus faults never healed *)
  outputs : (string * Json.t) list;
  layer : (string * float) list;
  registry : Registry.t;
}

type workload = {
  name : string;
  params : (string * Json.t) list;
  probe : (config:Sched.config -> seed:int -> float * gc) option;
      (** set up without running: setup wall seconds and allocation *)
  rep : config:Sched.config -> seed:int -> setup_probe:gc -> rep;
}

let switch_links (ft : Fat_tree.t) =
  let topo = ft.Fat_tree.topo in
  let is_switch (n : Topology.node) =
    match n.Topology.kind with
    | Topology.Switch | Topology.Router -> true
    | Topology.Host -> false
  in
  List.filter_map
    (fun (l : Topology.link) ->
      let src = Topology.node topo l.Topology.src in
      let dst = Topology.node topo l.Topology.dst in
      if l.Topology.link_id < l.Topology.peer && is_switch src && is_switch dst
      then Some (src.Topology.name, dst.Topology.name)
      else None)
    (Topology.links topo)

(* The failure-storm shape: every 7th inter-switch link flaps as a
   Poisson source at 0.3/s (down 1.5 s each) from 5 s to 30 s, and one
   aggregation switch crashes at 6 s and restarts at 14 s (hold time
   9 s, so peers notice through hold expiry and the speaker rejoins
   through ConnectRetry). The last 10 s let every fault heal. *)
let storm_plan ~seed (ft : Fat_tree.t) =
  let sites = List.filteri (fun i _ -> i mod 7 = 0) (switch_links ft) in
  let victim = ft.Fat_tree.aggs.(0).(0).Topology.name in
  let storm =
    Plan.flap_storm ~seed ~sites ~start:(Time.of_sec 5.0)
      ~stop:(Time.of_sec 30.0) ~rate:0.3 ~down_for:(Time.of_sec 1.5) ()
  in
  {
    storm with
    Plan.events =
      [
        { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash victim };
        { Plan.at = Time.of_sec 14.0; action = Plan.Node_restart victim };
      ];
  }

(* One experiment of a fat-tree batch, reduced to what the repetition
   reports, so that its causal graph and registry are freed before the
   next one runs. *)
type part = {
  p_run_s : float;
  p_cpu_s : float;  (** CPU seconds of the scenario call (setup and run) *)
  p_setup_s : float;
  p_gc : gc;
  p_build_s : float;
  p_eng : engine;
  p_causal_nodes : int;
  p_causal_dropped : int;
  p_injected : int;
  p_pending : int;
  p_recon : float list;
  p_hosts : int;
  p_started : int;
  p_outputs : (string * Json.t) list;
}

(* Each output of a batch as the list of its parts' values. *)
let per_part outputs =
  match outputs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) -> (k, Json.List (List.map (List.assoc k) outputs)))
        first

(* One fat-tree repetition is a batch of [batch] experiments on seeds
   [seed * batch] .. [seed * batch + batch - 1]. Experiments of well
   under a second let a run hold ten or more repetitions for its median
   (a 10-pod BGP experiment took about 3 s, so a 30 s run held 6), and a
   batch of seeds averages out how much work one seed's traffic or fault
   plan happens to cause. *)
let fat_tree_workload ~name ~pods ~te ~duration_s ~storm ~batch =
  let seeds ~seed = List.init batch (fun i -> (seed * batch) + i) in
  let plan ~seed =
    let ft, build_s = timed "topo.build" (fun () -> Fat_tree.build ~k:pods ()) in
    let plan =
      if storm then Some (span "faults.plan" (fun () -> storm_plan ~seed ft))
      else None
    in
    (plan, build_s)
  in
  let scenario ~config ~seed ~faults ~duration =
    span "core.run_fat_tree_te" (fun () ->
        Scenario.run_fat_tree_te ~seed ~config ?faults ~pods ~te ~duration ())
  in
  let probe ~config ~seed =
    List.fold_left
      (fun (setup_s, g) seed ->
        let faults, _ = plan ~seed in
        let r, g', _ =
          measured (fun () -> scenario ~config ~seed ~faults ~duration:Time.zero)
        in
        (setup_s +. r.Scenario.setup_wall_s, gc_add g g'))
      (0.0, gc_zero) (seeds ~seed)
  in
  let part ~config ~reg seed =
    let faults, build_s = plan ~seed in
    let r, g, cpu_s =
      measured (fun () ->
          scenario ~config ~seed ~faults ~duration:(Time.of_sec duration_s))
    in
    Registry.merge_into reg r.Scenario.registry;
    let injected, pending, recon, fault_outputs =
      match r.Scenario.injector with
      | None -> (0, 0, [], [])
      | Some inj ->
          let labels = span "faults.trace" (fun () -> Injector.trace_labels inj) in
          ( Injector.injected inj,
            Injector.pending inj,
            List.map
              (fun (_, at, healed) -> Time.to_sec healed -. Time.to_sec at)
              (Injector.reconvergence inj),
            [
              ("faults_injected", Json.Int (Injector.injected inj));
              ("faults_pending", Json.Int (Injector.pending inj));
              ( "fault_trace_md5",
                Json.String (Digest.to_hex (Digest.string (String.concat "\n" labels))) );
            ] )
    in
    let bgp_outputs =
      match te with
      | Scenario.Bgp_ecmp ->
          [
            ( "fib_fingerprint",
              match r.Scenario.fib_fingerprint with
              | Some f -> Json.String f
              | None -> Json.Null );
            ( "causal_hash",
              match r.Scenario.causal with
              | Some c -> Json.String (span "engine.causal_hash" (fun () -> Causal.hash c))
              | None -> Json.Null );
          ]
      | Scenario.Sdn_ecmp | Scenario.Hedera_gff | Scenario.Hedera_annealing
      | Scenario.P4_ecmp ->
          []
    in
    let causal f = match r.Scenario.causal with Some c -> f c | None -> 0 in
    {
      p_run_s = r.Scenario.run_wall_s;
      p_cpu_s = cpu_s;
      p_setup_s = r.Scenario.setup_wall_s;
      p_gc = g;
      p_build_s = build_s;
      p_eng = engine_of r.Scenario.sched_stats;
      p_causal_nodes = causal Causal.length;
      p_causal_dropped = causal Causal.dropped;
      p_injected = injected;
      p_pending = pending;
      p_recon = recon;
      p_hosts = r.Scenario.n_hosts;
      p_started = r.Scenario.flows_started;
      p_outputs =
        [
          ("delivered_bits", Json.Float r.Scenario.delivered_bits);
          ("offered_bits", Json.Float r.Scenario.offered_bits);
          ("flows_started", Json.Int r.Scenario.flows_started);
          ("n_hosts", Json.Int r.Scenario.n_hosts);
          ("converged", Json.Bool (r.Scenario.converged_at <> None));
        ]
        @ bgp_outputs @ fault_outputs;
    }
  in
  let rep ~config ~seed ~setup_probe =
    let reg = Registry.create () in
    (* Each part starts from a compacted heap (as each WAN of a megauser
       batch does), so no part pays for another's garbage. *)
    let parts =
      List.map
        (fun seed ->
          Gc.compact ();
          part ~config ~reg seed)
        (seeds ~seed)
    in
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
    let sumf f = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
    let run_gc =
      gc_diff (List.fold_left (fun acc p -> gc_add acc p.p_gc) gc_zero parts) setup_probe
    in
    let eng =
      match List.map (fun p -> p.p_eng) parts with
      | e :: rest -> List.fold_left engine_add e rest
      | [] -> invalid_arg "fat-tree: empty batch"
    in
    let layer =
      span "telemetry.read" (fun () ->
          layers ~eng ~reg
            ~causal_nodes:(sum (fun p -> p.p_causal_nodes))
            ~causal_dropped:(sum (fun p -> p.p_causal_dropped))
            ~injected:(sum (fun p -> p.p_injected))
            ~recon:(List.concat_map (fun p -> p.p_recon) parts)
            ~build_s:(sumf (fun p -> p.p_build_s))
            ~setup_gc:setup_probe ~run_gc ())
    in
    {
      setup_s = sumf (fun p -> p.p_setup_s);
      parts = List.map (fun p -> (p.p_run_s, p.p_cpu_s)) parts;
      setup_gc = setup_probe;
      run_gc;
      ops = sum (fun p -> p.p_hosts + p.p_injected);
      ops_failed = sum (fun p -> p.p_hosts - p.p_started + p.p_pending);
      outputs = per_part (List.map (fun p -> p.p_outputs) parts);
      layer;
      registry = reg;
    }
  in
  {
    name;
    params =
      [
        ("pods", Json.Int pods);
        ("te", Json.String (Scenario.te_name te));
        ("duration_s", Json.Float duration_s);
        ("fault_plan", Json.String (if storm then "failure-storm" else "none"));
        ("batch", Json.Int batch);
        ("part_seeds", Json.String "seed*batch .. seed*batch+batch-1");
      ];
    probe = Some probe;
    rep;
  }

(* One WAN of a megauser batch. *)
type instance = {
  mu : Scenario.megauser_result;
  wan_s : float;  (** Wan.random_gnp wall seconds *)
  wan_gc : gc;
  mu_gc : gc;
  mu_cpu_s : float;  (** CPU seconds of the WAN build and the scenario *)
}

(* One megauser repetition is a batch of [batch] seeded WANs. A single
   random WAN's cost depends on its shape, so one WAN per seed would
   measure the graph more than the program: 16 WANs of 44 cities still
   allocated 11% more on one seed than another (interquartile range),
   32 WANs of 30 cities 4%. *)
let megauser_workload ~cities ~classes ~headroom ~batch ~duration_s =
  let instance ~config ~seed =
    let (wan, wan_s), wan_gc, wan_cpu =
      measured (fun () ->
          timed "topo.build" (fun () ->
              Wan.random_gnp ~seed ~n:cities ~p:(4.0 /. float_of_int cities) ()))
    in
    let mu, mu_gc, mu_cpu =
      measured (fun () ->
          span "core.run_wan_megauser" (fun () ->
              Scenario.run_wan_megauser ~seed ~config ~wan ~classes ~headroom
                ~duration:(Time.of_sec duration_s) ()))
    in
    { mu; wan_s; wan_gc; mu_gc; mu_cpu_s = wan_cpu +. mu_cpu }
  in
  let rep ~config ~seed ~setup_probe:_ =
    let batch =
      List.init batch (fun i ->
          Gc.compact ();
          instance ~config ~seed:((seed * batch) + i))
    in
    let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 batch in
    let each f = Json.List (List.map f batch) in
    let solves x =
      match x.mu.Scenario.mu_delta with
      | Some d -> float_of_int d.Horse_dataplane.Fair_share.Delta.solves
      | None -> 0.0
    in
    let reg = Registry.create () in
    List.iter (fun x -> Registry.merge_into reg x.mu.Scenario.mu_registry) batch;
    let eng =
      match List.map (fun x -> engine_of x.mu.Scenario.mu_sched_stats) batch with
      | e :: rest -> List.fold_left engine_add e rest
      | [] -> invalid_arg "megauser: empty batch"
    in
    let setup_gc = List.fold_left (fun acc x -> gc_add acc x.wan_gc) gc_zero batch in
    let run_gc = List.fold_left (fun acc x -> gc_add acc x.mu_gc) gc_zero batch in
    let build_s = sum (fun x -> x.wan_s) in
    let layer =
      span "telemetry.read" (fun () ->
          layers ~waterfills:(sum solves) ~eng ~reg ~causal_nodes:0
            ~causal_dropped:0 ~injected:0 ~recon:[] ~build_s ~setup_gc ~run_gc
            ())
    in
    let started x = x.mu.Scenario.mu_classes_started in
    {
      setup_s = build_s +. sum (fun x -> x.mu.Scenario.mu_setup_wall_s);
      parts = List.map (fun x -> (x.mu.Scenario.mu_run_wall_s, x.mu_cpu_s)) batch;
      setup_gc;
      run_gc;
      ops = List.fold_left (fun acc x -> acc + started x) 0 batch;
      ops_failed = 0;
      outputs =
        [
          ("classes_started", each (fun x -> Json.Int (started x)));
          ("delivered_bits", each (fun x -> Json.Float x.mu.Scenario.mu_delivered_bits));
          ( "waterfill_share",
            each (fun x ->
                Json.Float (ratio (solves x) (float_of_int x.mu.Scenario.mu_solves))) );
        ];
      layer;
      registry = reg;
    }
  in
  {
    name = "megauser";
    params =
      [
        ("wan", Json.String "random_gnp");
        ("cities", Json.Int cities);
        ("avg_degree", Json.Int 4);
        ("classes", Json.Int classes);
        ("headroom", Json.Float headroom);
        ("batch", Json.Int batch);
        ("wan_seeds", Json.String "seed*batch .. seed*batch+batch-1");
        ("duration_s", Json.Float duration_s);
      ];
    probe = None;
    rep;
  }

let workloads =
  [
    fat_tree_workload ~name:"fattree-bgp" ~pods:8 ~te:Scenario.Bgp_ecmp
      ~duration_s:20.0 ~storm:false ~batch:1;
    fat_tree_workload ~name:"bgp-storm" ~pods:6 ~te:Scenario.Bgp_ecmp
      ~duration_s:40.0 ~storm:true ~batch:4;
    fat_tree_workload ~name:"fattree-hedera" ~pods:10 ~te:Scenario.Hedera_gff
      ~duration_s:60.0 ~storm:false ~batch:4;
    megauser_workload ~cities:30 ~classes:750 ~headroom:0.95 ~batch:32
      ~duration_s:60.0;
  ]

(* --- main ---------------------------------------------------------- *)

let n_probes = 10
let max_reps = 50

let rep_json (r, r_wall, (cal_cpu, cal_wall), top_heap_words) =
  let total f = List.fold_left (fun acc p -> acc +. f p) 0.0 r.parts in
  Json.Obj
    [
      ("calibration_cpu_s", Json.Float cal_cpu);
      ("calibration_wall_s", Json.Float cal_wall);
      ("top_heap_words", Json.Int top_heap_words);
      ("setup_s", Json.Float r.setup_s);
      ("run_s", Json.Float (total fst));
      ("cpu_s", Json.Float (total snd));
      ("run_parts_s", Json.List (List.map (fun (w, _) -> Json.Float w) r.parts));
      ("cpu_parts_s", Json.List (List.map (fun (_, c) -> Json.Float c) r.parts));
      ("rep_wall_s", Json.Float r_wall);
      ("setup_gc", gc_json r.setup_gc);
      ("run_gc", gc_json r.run_gc);
      ("ops", Json.Int r.ops);
      ("ops_failed", Json.Int r.ops_failed);
      ("outputs", Json.Obj r.outputs);
      ("layer", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.layer));
    ]

let write_spans path ~t0 reg =
  let spans =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.sp_name);
            ("parent", Json.Int s.sp_parent);
            ("start_s", Json.Float (s.sp_start -. t0));
            ("wall_s", Json.Float (s.sp_stop -. s.sp_start));
            ("minor_words", Json.Float s.sp_minor_words);
          ])
      !spans
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("spans", Json.List spans);
            ("registry", Horse_telemetry.Export.json reg);
          ]));
  output_char oc '\n';
  close_out oc

let usage () =
  prerr_endline
    "usage: horsebench.exe WORKLOAD SEED SECONDS (plain|traced) MIN_REPS \
     SPANS_OUT";
  exit 2

let () =
  let workload, seed, seconds, traced, min_reps, spans_out =
    match Array.to_list Sys.argv with
    | [ _; w; seed; seconds; mode; min_reps; spans_out ] -> (
        match
          ( List.find_opt (fun x -> String.equal x.name w) workloads,
            int_of_string_opt seed,
            float_of_string_opt seconds,
            mode,
            int_of_string_opt min_reps )
        with
        | Some w, Some seed, Some seconds, ("plain" | "traced"), Some min_reps ->
            (w, seed, seconds, String.equal mode "traced", max 1 min_reps, spans_out)
        | _ -> usage ())
    | _ -> usage ()
  in
  tracing := traced;
  let config = { Sched.default_config with Sched.profile = traced } in
  let t0 = Wall.now () in
  let probes =
    match workload.probe with
    | None -> []
    | Some probe ->
        List.init n_probes (fun _ ->
            Gc.compact ();
            probe ~config ~seed)
  in
  let setup_probe =
    match List.rev probes with (_, g) :: _ -> g | [] -> gc_zero
  in
  let calibrations = ref [ calibrate () ] in
  let last_registry = ref None in
  (* The heap one run of the workload needs: the top after the first
     repetition. OCaml 5.1 never shrinks the heap, and later repetitions
     ratchet its top up (on fattree-bgp from 64 to over 110 MB in 20
     repetitions of the same experiment), so a top read later would
     grow with the number of repetitions a run fits, and a faster
     program would read as a larger one. *)
  let peak_heap_words = ref 0 in
  (* Repeat until the budget would be overrun by one more repetition of
     typical cost (checks and calibration included), with at least
     [min_reps]. Each repetition carries the mean of the calibrations
     before and after it, CPU and wall seconds. *)
  let rec loop reps costs =
    let n = List.length reps in
    let elapsed = Wall.now () -. t0 in
    if n >= max_reps || (n >= min_reps && elapsed +. median costs > seconds)
    then List.rev reps
    else begin
      let c0 = Wall.now () in
      let r = workload.rep ~config ~seed ~setup_probe in
      let top = (Gc.quick_stat ()).Gc.top_heap_words in
      if reps = [] then peak_heap_words := top;
      let before = List.hd !calibrations and after = calibrate () in
      calibrations := after :: !calibrations;
      let cost = Wall.now () -. c0 in
      (* Only the last registry is kept, so that the heap does not grow
         with the number of repetitions. *)
      last_registry := Some r.registry;
      let mean f = (f before +. f after) /. 2.0 in
      let json = rep_json (r, cost, (mean fst, mean snd), top) in
      loop (json :: reps) (cost :: costs)
    end
  in
  let reps = loop [] [] in
  (match !last_registry with
  | Some reg when traced -> write_spans spans_out ~t0 reg
  | Some _ | None -> ());
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String workload.name);
            ("seed", Json.Int seed);
            ("mode", Json.String (if traced then "traced" else "plain"));
            ("params", Json.Obj workload.params);
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("word_size_bits", Json.Int Sys.word_size);
            ("probe_setup_s", Json.List (List.map (fun (s, _) -> Json.Float s) probes));
            ( "calibrations_cpu_s",
              Json.List (List.rev_map (fun (c, _) -> Json.Float c) !calibrations) );
            ( "calibrations_wall_s",
              Json.List (List.rev_map (fun (_, w) -> Json.Float w) !calibrations) );
            ("reps", Json.List reps);
            ("peak_heap_words", Json.Int !peak_heap_words);
            ("elapsed_s", Json.Float (Wall.now () -. t0));
          ]))
