type flow_input = { demand : float; links : int list }

(* ------------------------------------------------------------------ *)
(* Sorted-demand water filling over dense arrays.                     *)
(* ------------------------------------------------------------------ *)

(* The arena holds every scratch buffer the solvers need, grown
   geometrically and reused across calls, so the hot path (one solve
   per fluid-dataplane change instant) allocates only the result
   array. {!compute} maps link ids to dense indices through one
   Hashtbl that is cleared — never re-created — per call; {!Delta}
   numbers its links itself and shares only the kernel's buffers. *)
type arena = {
  mutable link_idx : (int, int) Hashtbl.t;  (* link id -> dense index *)
  mutable cap : float array;            (* per dense link *)
  mutable frozen_load : float array;
  mutable unfrozen : int array;
  mutable level : float array;          (* saturation level per dense link *)
  mutable lf_off : int array;           (* CSR link -> member flows *)
  mutable lf_fill : int array;
  mutable lf_flow : int array;
  mutable fl_off : int array;           (* CSR flow -> dense links *)
  mutable fl_link : int array;
  mutable key : float array;            (* per flow: demand to fill up to *)
  mutable rates : float array;          (* per flow: kernel output *)
  mutable frozen : bool array;
  mutable order : int array;            (* flow indices by demand asc *)
}

(* Buffers start empty: every user grows what it writes first. *)
let create_arena () =
  { link_idx = Hashtbl.create 256; cap = [||]; frozen_load = [||];
    unfrozen = [||]; level = [||]; lf_off = [||]; lf_fill = [||];
    lf_flow = [||]; fl_off = [||]; fl_link = [||]; key = [||];
    rates = [||]; frozen = [||]; order = [||] }

let grown gen a n =
  if Array.length a >= n then a
  else begin
    let b = gen (2 * n) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grown_f a n = grown (fun n -> Array.make n 0.0) a n
let grown_i a n = grown (fun n -> Array.make n 0) a n
let grown_b a n = grown (fun n -> Array.make n false) a n

(* The one sort routine: an in-place heapsort of [a.(0..n-1)] under
   [lt]. Callers compare through unboxed arrays ([fun i j -> key.(i) <
   key.(j)]), never through a float-returning key function, so no
   comparison allocates. Its order on ties never reaches a float: equal
   demands freeze at equal rates, and ids are unique. *)
let heapsort (a : int array) n lt =
  let swap i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  in
  let rec sift_down i len =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < len && lt a.(!largest) a.(l) then largest := l;
    if r < len && lt a.(!largest) a.(r) then largest := r;
    if !largest <> i then begin
      swap i !largest;
      sift_down !largest len
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift_down 0 last
  done

(* The water-filling kernel both solvers share. In [a]: demands
   [key.(0..n-1)], the flow -> dense-link CSR [fl_off]/[fl_link] and
   [cap.(0..n_links-1)]. Out: [rates.(0..n-1)], [level.(li)] — the
   water level at which link [li] saturated as the selected bottleneck,
   [infinity] if it never was — and the link -> flow CSR
   [lf_off]/[lf_flow] (members in ascending flow index). Every freeze
   happens in ascending rate order, so a link's frozen load is a
   canonical ascending-order sum of its members' rates — which is what
   makes levels comparable across scoped and full solves. *)
let waterfill a ~n ~n_links =
  let total = a.fl_off.(n) in
  a.lf_off <- grown_i a.lf_off (n_links + 1);
  a.lf_fill <- grown_i a.lf_fill n_links;
  a.lf_flow <- grown_i a.lf_flow (max 1 total);
  a.frozen_load <- grown_f a.frozen_load n_links;
  a.unfrozen <- grown_i a.unfrozen n_links;
  a.level <- grown_f a.level n_links;
  a.rates <- grown_f a.rates n;
  a.frozen <- grown_b a.frozen n;
  a.order <- grown_i a.order n;
  let { fl_off; fl_link; lf_off; lf_fill; lf_flow; cap; frozen_load;
        unfrozen; level; key; rates; frozen; order; _ } = a in
  (* Link -> flow CSR from the per-link member counts. *)
  Array.fill lf_fill 0 n_links 0;
  for k = 0 to total - 1 do
    lf_fill.(fl_link.(k)) <- lf_fill.(fl_link.(k)) + 1
  done;
  let acc = ref 0 in
  for li = 0 to n_links - 1 do
    lf_off.(li) <- !acc;
    acc := !acc + lf_fill.(li);
    unfrozen.(li) <- lf_fill.(li);
    lf_fill.(li) <- lf_off.(li);
    frozen_load.(li) <- 0.0;
    level.(li) <- infinity
  done;
  lf_off.(n_links) <- !acc;
  for i = 0 to n - 1 do
    frozen.(i) <- false;
    order.(i) <- i;
    for k = fl_off.(i) to fl_off.(i + 1) - 1 do
      let li = fl_link.(k) in
      lf_flow.(lf_fill.(li)) <- i;
      lf_fill.(li) <- lf_fill.(li) + 1
    done
  done;
  (* [freeze i] commits the rate already stored in [rates.(i)]; taking
     it from the array keeps the float unboxed. *)
  let n_unfrozen = ref n in
  let freeze i =
    let r = rates.(i) in
    frozen.(i) <- true;
    decr n_unfrozen;
    for k = fl_off.(i) to fl_off.(i + 1) - 1 do
      let li = fl_link.(k) in
      frozen_load.(li) <- frozen_load.(li) +. r;
      unfrozen.(li) <- unfrozen.(li) - 1
    done
  in
  (* Zero-demand (even -0.0) and pathless flows are trivially assigned. *)
  for i = 0 to n - 1 do
    if key.(i) = 0.0 then begin
      rates.(i) <- 0.0;
      freeze i
    end
    else if fl_off.(i + 1) = fl_off.(i) then begin
      rates.(i) <- key.(i);
      freeze i
    end
  done;
  heapsort order n (fun i j -> key.(i) < key.(j));
  let ptr = ref 0 in
  while !n_unfrozen > 0 do
    (* Bottleneck link: minimal equal share among remaining flows. *)
    let water = ref infinity and bott = ref (-1) in
    for li = 0 to n_links - 1 do
      if unfrozen.(li) > 0 then begin
        let share =
          Float.max 0.0 (cap.(li) -. frozen_load.(li))
          /. float_of_int unfrozen.(li)
        in
        if share < !water then begin
          water := share;
          bott := li
        end
      end
    done;
    while !ptr < n && frozen.(order.(!ptr)) do incr ptr done;
    (* !n_unfrozen > 0 guarantees !ptr < n here. *)
    let dmin = key.(order.(!ptr)) in
    if !bott < 0 || dmin <= !water then begin
      (* As the water rises to its level, every flow whose demand sits
         below it saturates at that demand without any link filling
         up first; the sorted order lets us freeze the whole batch in
         one sweep instead of one progressive-filling round per
         distinct demand. *)
      let threshold = if !bott < 0 then dmin else !water in
      let continue = ref true in
      while !continue && !ptr < n do
        let i = order.(!ptr) in
        if frozen.(i) then incr ptr
        else if key.(i) <= threshold then begin
          rates.(i) <- key.(i);
          freeze i;
          incr ptr
        end
        else continue := false
      done
    end
    else begin
      (* The bottleneck saturates first: its members freeze at the
         equal share. *)
      let b = !bott in
      level.(b) <- !water;
      for k = lf_off.(b) to lf_off.(b + 1) - 1 do
        let i = lf_flow.(k) in
        if not frozen.(i) then begin
          rates.(i) <- !water;
          freeze i
        end
      done
    end
  done

let compute_with a ~capacity flows =
  let n = Array.length flows in
  if n = 0 then [||]
  else begin
    Array.iter
      (fun f ->
        if f.demand < 0.0 then
          invalid_arg "Fair_share.compute: negative demand")
      flows;
    Hashtbl.clear a.link_idx;
    a.fl_off <- grown_i a.fl_off (n + 1);
    a.key <- grown_f a.key n;
    (* Dense link ids in first-reference order + flow->link CSR. *)
    let n_links = ref 0 and pos = ref 0 in
    Array.iteri
      (fun i f ->
        a.fl_off.(i) <- !pos;
        a.key.(i) <- f.demand;
        List.iter
          (fun l ->
            let li =
              match Hashtbl.find_opt a.link_idx l with
              | Some li -> li
              | None ->
                  let c = capacity l in
                  if c <= 0.0 then
                    invalid_arg "Fair_share.compute: non-positive capacity";
                  let li = !n_links in
                  incr n_links;
                  a.cap <- grown_f a.cap !n_links;
                  a.cap.(li) <- c;
                  Hashtbl.add a.link_idx l li;
                  li
            in
            a.fl_link <- grown_i a.fl_link (!pos + 1);
            a.fl_link.(!pos) <- li;
            incr pos)
          f.links)
      flows;
    a.fl_off.(n) <- !pos;
    waterfill a ~n ~n_links:!n_links;
    Array.sub a.rates 0 n
  end

let default_arena = lazy (create_arena ())

let compute ?arena ~capacity flows =
  let arena =
    match arena with Some a -> a | None -> Lazy.force default_arena
  in
  compute_with arena ~capacity flows

(* ------------------------------------------------------------------ *)
(* Delta solver: persistent bottleneck state, event-scoped resolves.  *)
(* ------------------------------------------------------------------ *)

module Delta = struct
  type dflow = {
    fid : int;
    demand : float;
    mutable flinks : dlink list;
    mutable rate : float;
    mutable pending : bool;
        (* queued for the next flush: its rate is in no link's [lload]
           and it may not take a fast path until a solve commits it *)
    mutable scope : int;  (* epoch of the flush whose scope holds it *)
    mutable clamp : int;  (* epoch of the solve iteration clamping it *)
  }

  and dlink = {
    lid : int;
    lcap : float;
    mutable level : float;
        (* water level at which the link last saturated as the selected
           bottleneck; [infinity] when its members all froze
           demand-limited (residual may still be zero). *)
    mutable lload : float;
        (* sum of member rates. Recomputed exactly (ascending fid
           order) whenever the link is in a solve; adjusted by the
           event's own exact delta on fast-path commits. Only ever
           compared against [lcap], never fed into rate arithmetic, so
           ulp-level reassociation drift is harmless: it can only flip
           a marginal fast/slow decision, and the slow path is always
           correct. *)
    lmembers : (int, dflow) Hashtbl.t;
    mutable insolve : int;  (* epoch of the flush whose solve holds it *)
    mutable dense : int;  (* dense index in solve iteration [dense_at] *)
    mutable dense_at : int;
  }

  type stats = {
    solves : int;
    events : int;
    flows_touched : int;
    links_touched : int;
    expansions : int;
    promotions : int;
  }

  type t = {
    capacity : int -> float;
    dflows : (int, dflow) Hashtbl.t;
    dlinks : (int, dlink) Hashtbl.t;
    mutable seed_flows : int list;  (* dirtied since the last flush *)
    mutable seed_links : int list;
    mutable fast_touched : int list;
        (* flows committed by the fast path since the last flush *)
    mutable pending_fast_flows : int;
    mutable pending_fast_links : int;
        (* fast-path work, folded into the stats at the next flush so
           callers diffing stats around a solve see it *)
    mutable last_touched : int list;
    (* Solve state, reused across flushes. Set membership is an epoch
       stamp on the record (see {!flush}); these buffers list the
       members, and only their prefixes are live. *)
    arena : arena;
    mutable epoch : int;
    mutable scope_buf : dflow array;
    mutable n_scope : int;
    mutable insolve_buf : dlink array;
    mutable n_insolve : int;
    mutable clamp_buf : dflow array;
    mutable fids : int array;  (* sort keys *)
    mutable solve_flows : dflow array;  (* canonical order *)
    mutable solve_links : dlink array;  (* by dense index *)
    mutable s_solves : int;
    mutable s_events : int;
    mutable s_flows_touched : int;
    mutable s_links_touched : int;
    mutable s_expansions : int;
    mutable s_promotions : int;
  }

  (* Fillers for the grown buffers' dead slots. *)
  let no_flow =
    { fid = -1; demand = 0.0; flinks = []; rate = 0.0; pending = false;
      scope = 0; clamp = 0 }

  let no_link =
    { lid = -1; lcap = 1.0; level = infinity; lload = 0.0;
      lmembers = Hashtbl.create 1; insolve = 0; dense = 0; dense_at = 0 }

  let grown_df a n = grown (fun n -> Array.make n no_flow) a n
  let grown_dl a n = grown (fun n -> Array.make n no_link) a n

  let create ~capacity () =
    {
      capacity;
      dflows = Hashtbl.create 1024;
      dlinks = Hashtbl.create 256;
      seed_flows = [];
      seed_links = [];
      fast_touched = [];
      pending_fast_flows = 0;
      pending_fast_links = 0;
      last_touched = [];
      arena = create_arena ();
      epoch = 0;
      scope_buf = [||];
      n_scope = 0;
      insolve_buf = [||];
      n_insolve = 0;
      clamp_buf = [||];
      fids = [||];
      solve_flows = [||];
      solve_links = [||];
      s_solves = 0;
      s_events = 0;
      s_flows_touched = 0;
      s_links_touched = 0;
      s_expansions = 0;
      s_promotions = 0;
    }

  let dlink t lid =
    match Hashtbl.find_opt t.dlinks lid with
    | Some l -> l
    | None ->
        let cap = t.capacity lid in
        if cap <= 0.0 then
          invalid_arg "Fair_share.Delta: non-positive capacity";
        let l = { no_link with lid; lcap = cap; lmembers = Hashtbl.create 8 } in
        Hashtbl.add t.dlinks lid l;
        l

  (* A live flow's links are always the current [t.dlinks] records: a
     link is dropped only once it has no members. *)
  let lids links acc = List.fold_left (fun acc l -> l.lid :: acc) acc links

  (* Fast paths: an event whose links all sit strictly below
     saturation (level = infinity, and any added load fits in the
     residual) cannot change the bottleneck set — the new/removed/
     rerouted flow is demand-limited and every other flow's rate is
     untouched, so the event commits in O(path) with no water-fill at
     all. This is the common case for real workloads, where most links
     run below capacity; the scoped solve in {!flush} only runs for
     events that actually move a bottleneck. A pending flow never takes
     one: its rate is not in [lload] to add or subtract. *)

  let fast_commit t ~id ~links =
    t.fast_touched <- id :: t.fast_touched;
    t.pending_fast_flows <- t.pending_fast_flows + 1;
    t.pending_fast_links <- t.pending_fast_links + List.length links

  let unsaturated links = List.for_all (fun l -> l.level = infinity) links

  let add_flow t ~id ~demand ~links =
    if demand < 0.0 then
      invalid_arg "Fair_share.Delta.add_flow: negative demand";
    if Hashtbl.mem t.dflows id then
      invalid_arg "Fair_share.Delta.add_flow: duplicate id";
    let links = List.map (dlink t) links in
    let f = { no_flow with fid = id; demand; flinks = links } in
    Hashtbl.add t.dflows id f;
    List.iter (fun l -> Hashtbl.replace l.lmembers id f) links;
    t.s_events <- t.s_events + 1;
    let absorbed =
      List.for_all
        (fun l -> l.level = infinity && l.lload +. demand <= l.lcap)
        links
    in
    if absorbed then begin
      f.rate <- demand;
      List.iter (fun l -> l.lload <- l.lload +. demand) links;
      fast_commit t ~id ~links
    end
    else begin
      f.pending <- true;
      t.seed_flows <- id :: t.seed_flows
    end

  let remove_flow t ~id =
    match Hashtbl.find_opt t.dflows id with
    | None -> ()
    | Some f ->
        Hashtbl.remove t.dflows id;
        let unsaturated = (not f.pending) && unsaturated f.flinks in
        List.iter
          (fun l ->
            Hashtbl.remove l.lmembers id;
            if unsaturated then begin
              l.lload <- l.lload -. f.rate;
              if Hashtbl.length l.lmembers = 0 then
                Hashtbl.remove t.dlinks l.lid
            end)
          f.flinks;
        t.s_events <- t.s_events + 1;
        if unsaturated then
          (* departure from links that never bind relaxes every
             constraint without moving a level: nobody's rate changes *)
          t.pending_fast_flows <- t.pending_fast_flows + 1
        else t.seed_links <- lids f.flinks t.seed_links

  let set_links t ~id ~links =
    match Hashtbl.find_opt t.dflows id with
    | None -> invalid_arg "Fair_share.Delta.set_links: unknown flow"
    | Some f ->
        let old_links = f.flinks in
        let old_unsaturated =
          (* a clamped flow may sit below its demand on links that no
             longer bind; only a demand-limited one may move freely *)
          (not f.pending) && f.rate = f.demand && unsaturated old_links
        in
        List.iter (fun l -> Hashtbl.remove l.lmembers id) old_links;
        let links = List.map (dlink t) links in
        f.flinks <- links;
        List.iter (fun l -> Hashtbl.replace l.lmembers id f) links;
        t.s_events <- t.s_events + 1;
        let absorbed =
          old_unsaturated
          && List.for_all
               (fun l -> l.level = infinity && l.lload +. f.rate <= l.lcap)
               links
        in
        if absorbed then begin
          List.iter
            (fun l ->
              l.lload <- l.lload -. f.rate;
              if Hashtbl.length l.lmembers = 0 then
                Hashtbl.remove t.dlinks l.lid)
            old_links;
          List.iter (fun l -> l.lload <- l.lload +. f.rate) links;
          fast_commit t ~id ~links
        end
        else begin
          t.seed_links <- lids old_links t.seed_links;
          t.seed_flows <- id :: t.seed_flows;
          f.pending <- true
        end

  let rate t ~id =
    match Hashtbl.find_opt t.dflows id with Some f -> f.rate | None -> 0.0

  let touched t = t.last_touched
  let flow_count t = Hashtbl.length t.dflows

  let stats t =
    {
      solves = t.s_solves;
      events = t.s_events;
      flows_touched = t.s_flows_touched;
      links_touched = t.s_links_touched;
      expansions = t.s_expansions;
      promotions = t.s_promotions;
    }

  (* Set membership during a flush is an epoch stamp: [t.epoch] grows
     once per flush (scope and in-solve sets, which only grow while the
     fixpoint runs) and once per solve iteration (clamped set, dense
     link numbering), so no set is ever cleared. *)
  let rec add_insolve t e = function
    | [] -> ()
    | l :: rest ->
        if l.insolve <> e then begin
          l.insolve <- e;
          t.insolve_buf <- grown_dl t.insolve_buf (t.n_insolve + 1);
          t.insolve_buf.(t.n_insolve) <- l;
          t.n_insolve <- t.n_insolve + 1
        end;
        add_insolve t e rest

  let add_scope t e f =
    if f.scope <> e then begin
      f.scope <- e;
      t.scope_buf <- grown_df t.scope_buf (t.n_scope + 1);
      t.scope_buf.(t.n_scope) <- f;
      t.n_scope <- t.n_scope + 1;
      add_insolve t e f.flinks
    end

  (* Positions of [src.(0..m-1)] in ascending fid order, in
     [t.arena.order]. *)
  let by_fid t (src : dflow array) m =
    let a = t.arena in
    a.order <- grown_i a.order m;
    t.fids <- grown_i t.fids m;
    let order = a.order and fids = t.fids in
    for p = 0 to m - 1 do
      order.(p) <- p;
      fids.(p) <- src.(p).fid
    done;
    heapsort order m (fun p q -> fids.(p) < fids.(q));
    order

  (* Exact member-rate sum in ascending fid order — the canonical
     order every solver freezes in — so the fast path's residual checks
     start from a reproducible baseline. Every member of an in-solve
     link is in the solve, and its CSR row lists the scope members,
     then the clamped ones, each run by ascending fid: merge the two
     runs. A flow listed twice (a repeated link) counts once. *)
  let member_load t ~ns li =
    let a = t.arena and sf = t.solve_flows in
    let lo = a.lf_off.(li) and hi = a.lf_off.(li + 1) in
    let mid = ref lo in
    while !mid < hi && a.lf_flow.(!mid) < ns do incr mid done;
    let fid k = sf.(a.lf_flow.(k)).fid in
    let p = ref lo and q = ref !mid and sum = ref 0.0 and last = ref (-1) in
    while !p < !mid || !q < hi do
      let next = if !q >= hi || (!p < !mid && fid !p < fid !q) then p else q in
      let i = a.lf_flow.(!next) in
      incr next;
      if i <> !last then sum := !sum +. sf.(i).rate;
      last := i
    done;
    !sum

  (* One fixpoint iteration of the flush over scope epoch [e]: a
     scoped water-fill, then the fixpoint checks. Commits and returns
     [true] at a fixpoint; otherwise widens the scope and returns
     [false]. *)
  let solve t e ~fast =
    let a = t.arena in
    t.epoch <- t.epoch + 1;
    let it = t.epoch in
    let nc = ref 0 in
    let clamp _ f =
      if f.scope <> e && f.clamp <> it then begin
        f.clamp <- it;
        t.clamp_buf <- grown_df t.clamp_buf (!nc + 1);
        t.clamp_buf.(!nc) <- f;
        incr nc
      end
    in
    for k = 0 to t.n_insolve - 1 do
      Hashtbl.iter clamp t.insolve_buf.(k).lmembers
    done;
    (* Canonical flow order (scope first, then clamped, both by id)
       keeps the solve deterministic regardless of hash order. *)
    let ns = t.n_scope and nc = !nc in
    let n = ns + nc in
    t.solve_flows <- grown_df t.solve_flows n;
    let sf = t.solve_flows in
    let gather off src m =
      let order = by_fid t src m in
      for k = 0 to m - 1 do
        sf.(off + k) <- src.(order.(k))
      done
    in
    gather 0 t.scope_buf ns;
    gather ns t.clamp_buf nc;
    (* Dense link ids over the in-solve set, in canonical
       first-reference order. Clamped flows keep only their in-solve
       links: at a fixpoint their rate is preserved, so their load on
       out-of-solve links is unchanged. *)
    a.fl_off <- grown_i a.fl_off (n + 1);
    a.key <- grown_f a.key n;
    let n_links = ref 0 and pos = ref 0 in
    let rec walk in_scope = function
      | [] -> ()
      | l :: rest ->
          if in_scope || l.insolve = e then begin
            if l.dense_at <> it then begin
              l.dense_at <- it;
              l.dense <- !n_links;
              t.solve_links <- grown_dl t.solve_links (!n_links + 1);
              a.cap <- grown_f a.cap (!n_links + 1);
              t.solve_links.(!n_links) <- l;
              a.cap.(!n_links) <- l.lcap;
              incr n_links
            end;
            a.fl_link <- grown_i a.fl_link (!pos + 1);
            a.fl_link.(!pos) <- l.dense;
            incr pos
          end;
          walk in_scope rest
    in
    for i = 0 to n - 1 do
      let f = sf.(i) in
      a.fl_off.(i) <- !pos;
      a.key.(i) <- (if i < ns then f.demand else f.rate);
      walk (i < ns) f.flinks
    done;
    a.fl_off.(n) <- !pos;
    let n_links = !n_links in
    t.s_flows_touched <- t.s_flows_touched + n;
    t.s_links_touched <- t.s_links_touched + n_links;
    waterfill a ~n ~n_links;
    (* Fixpoint checks: a clamped flow must reproduce its previous
       rate exactly, and no in-solve link's saturation level may
       change while it still has clamped members — either breach
       means the bottleneck structure shifted, so the breached flows
       join the scope and the solve expands. *)
    let promoted = ref 0 in
    let promote f =
      if f.scope <> e then begin
        add_scope t e f;
        incr promoted
      end
    in
    for i = ns to n - 1 do
      if a.rates.(i) <> sf.(i).rate then promote sf.(i)
    done;
    for li = 0 to n_links - 1 do
      if a.level.(li) <> t.solve_links.(li).level then
        for k = a.lf_off.(li) to a.lf_off.(li + 1) - 1 do
          promote sf.(a.lf_flow.(k))
        done
    done;
    if !promoted > 0 then begin
      t.s_promotions <- t.s_promotions + !promoted;
      false
    end
    else begin
      let touched = ref [] in
      for i = ns - 1 downto 0 do
        let f = sf.(i) in
        f.rate <- a.rates.(i);
        f.pending <- false;
        touched := f.fid :: !touched
      done;
      for k = 0 to t.n_insolve - 1 do
        let l = t.insolve_buf.(k) in
        l.level <- (if l.dense_at = it then a.level.(l.dense) else infinity);
        if Hashtbl.length l.lmembers = 0 then Hashtbl.remove t.dlinks l.lid
        else l.lload <- member_load t ~ns l.dense
      done;
      t.last_touched <- List.rev_append fast !touched;
      t.s_solves <- t.s_solves + 1;
      true
    end

  let flush t =
    let fast = t.fast_touched in
    t.fast_touched <- [];
    t.s_flows_touched <- t.s_flows_touched + t.pending_fast_flows;
    t.s_links_touched <- t.s_links_touched + t.pending_fast_links;
    t.pending_fast_flows <- 0;
    t.pending_fast_links <- 0;
    if t.seed_flows = [] && t.seed_links = [] then t.last_touched <- fast
    else begin
      (* Scope flows are fully re-solved (all their links join the
         in-solve set); every other member of an in-solve link is
         clamped at its previous rate, behaving exactly like a
         demand-limited flow whose external bottleneck is untouched. *)
      t.epoch <- t.epoch + 1;
      let e = t.epoch in
      t.n_scope <- 0;
      t.n_insolve <- 0;
      List.iter
        (fun fid ->
          Option.iter (add_scope t e) (Hashtbl.find_opt t.dflows fid))
        t.seed_flows;
      add_insolve t e (List.map (dlink t) t.seed_links);
      t.seed_flows <- [];
      t.seed_links <- [];
      while not (solve t e ~fast) do
        t.s_expansions <- t.s_expansions + 1
      done
    end
end


let link_loads flows rates =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      List.iter
        (fun l ->
          let cur = Option.value (Hashtbl.find_opt tbl l) ~default:0.0 in
          Hashtbl.replace tbl l (cur +. rates.(i)))
        f.links)
    flows;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
