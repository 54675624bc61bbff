(* map-write-64t: the paper's Figure 8 point. ResPCT Hashmap_respct at 64
   simulated threads, 50% updates over uniform keys, classic checkpoints,
   at the small-scale geometry of Harness.Experiments.

   The world is built from the harness's public pieces. The untraced run
   couples memory and scheduler with [Env.make], as the figure code does;
   the traced run couples them through [Env.make_backend] over a wrapped
   [Backend.of_memsys] whose load/store/pwb/psync closures time one call
   in [sample_every]. Both runs wrap the [Pds.Ops.map] record [build]
   returns, to count op outcomes and read each op's virtual latency. *)

let threads = 64
let update_pct = 50
let scale = Harness.Experiments.small

(* Host-time sampling of the memory closures. *)
let sample_every = 64

type calls = {
  mutable calls : int;
  mutable sampled : int;
  mutable sampled_ns : int;
}

let wrap_backend (b : Simnvm.Backend.t) c =
  let ovh = Lazy.force Clock.overhead_ns in
  let tick () =
    c.calls <- c.calls + 1;
    c.calls mod sample_every = 0
  in
  let record t0 =
    c.sampled <- c.sampled + 1;
    c.sampled_ns <- c.sampled_ns + max 0 (Clock.now_ns () - t0 - ovh)
  in
  {
    b with
    Simnvm.Backend.load =
      (fun a ->
        if tick () then begin
          let t0 = Clock.now_ns () in
          let v = b.Simnvm.Backend.load a in
          record t0;
          v
        end
        else b.Simnvm.Backend.load a);
    store =
      (fun a v ->
        if tick () then begin
          let t0 = Clock.now_ns () in
          b.Simnvm.Backend.store a v;
          record t0
        end
        else b.Simnvm.Backend.store a v);
    pwb =
      (fun a ->
        if tick () then begin
          let t0 = Clock.now_ns () in
          b.Simnvm.Backend.pwb a;
          record t0
        end
        else b.Simnvm.Backend.pwb a);
    psync =
      (fun () ->
        if tick () then begin
          let t0 = Clock.now_ns () in
          b.Simnvm.Backend.psync ();
          record t0
        end
        else b.Simnvm.Backend.psync ());
  }

(* Host-time mark every [mark_every] window ops (a power of two): about
   150 pieces of 7-10 ms in a repetition. *)
let mark_every = 2048

(* Op outcomes through the wrapped [Pds.Ops.map]. The [all_*] counts cover
   prefill and window and feed the live-key check; the rest cover the
   measured window only. *)
type ops = {
  mutable window : bool;
  mutable all_fresh : int;
  mutable all_remove_hits : int;
  mutable inserts : int;
  mutable fresh : int;
  mutable removes : int;
  mutable remove_hits : int;
  mutable searches : int;
  mutable search_hits : int;
  mutable raised : int;
  starts : float array; (* per slot: virtual start of its current op *)
  lat : Quant.Fbuf.t; (* window op latencies, virtual ns *)
}

let wrap_ops sched ~on_op (o : Pds.Ops.map) st =
  let now () = Simsched.Scheduler.now sched in
  let guard f =
    match f () with
    | v -> v
    | exception e ->
        st.raised <- st.raised + 1;
        raise e
  in
  {
    Pds.Ops.insert =
      (fun ~slot ~key ~value ->
        st.starts.(slot) <- now ();
        let fresh = guard (fun () -> o.Pds.Ops.insert ~slot ~key ~value) in
        if fresh then st.all_fresh <- st.all_fresh + 1;
        if st.window then begin
          st.inserts <- st.inserts + 1;
          if fresh then st.fresh <- st.fresh + 1
        end;
        fresh);
    remove =
      (fun ~slot ~key ->
        st.starts.(slot) <- now ();
        let hit = guard (fun () -> o.Pds.Ops.remove ~slot ~key) in
        if hit then st.all_remove_hits <- st.all_remove_hits + 1;
        if st.window then begin
          st.removes <- st.removes + 1;
          if hit then st.remove_hits <- st.remove_hits + 1
        end;
        hit);
    search =
      (fun ~slot ~key ->
        st.starts.(slot) <- now ();
        let r = guard (fun () -> o.Pds.Ops.search ~slot ~key) in
        if st.window then begin
          st.searches <- st.searches + 1;
          if r <> None then st.search_hits <- st.search_hits + 1
        end;
        r);
    map_rp =
      (fun ~slot ~id ->
        guard (fun () -> o.Pds.Ops.map_rp ~slot ~id);
        if st.window then begin
          Quant.Fbuf.push st.lat (now () -. st.starts.(slot));
          on_op ()
        end);
  }

(* Trace-bus counts of the traced run. *)
type bus_counts = {
  mutable acquires : int;
  mutable rps : int;
  mutable counting : bool;
  seen : bool array; (* tids that published anything *)
}

let subscribe_bus sched =
  let c =
    { acquires = 0; rps = 0; counting = false; seen = Array.make 4096 false }
  in
  let note tid =
    if tid >= 0 && tid < Array.length c.seen then c.seen.(tid) <- true
  in
  ignore
    (Simsched.Trace.subscribe (Simsched.Scheduler.trace_bus sched) (function
      | Simsched.Trace.Acquire { tid; _ } ->
          note tid;
          if c.counting then c.acquires <- c.acquires + 1
      | Simsched.Trace.Restart_point { tid; _ } ->
          note tid;
          if c.counting then c.rps <- c.rps + 1
      | Simsched.Trace.Load { tid; _ }
      | Simsched.Trace.Store { tid; _ }
      | Simsched.Trace.Rmw { tid; _ }
      | Simsched.Trace.Pwb { tid; _ }
      | Simsched.Trace.Psync { tid }
      | Simsched.Trace.Compute { tid; _ }
      | Simsched.Trace.Release { tid; _ } ->
          note tid));
  c

let params ~seed =
  {
    (Harness.Experiments.params_for scale ~threads ~kind:Harness.Systems.Respct)
    with
    Harness.Systems.seed;
  }

let run ~(tr : Tracer.t) ~seed : Rep.t =
  let traced = tr.Tracer.on in
  let p = params ~seed in
  let wl =
    {
      Harness.Workload.nthreads = threads;
      duration_ns = scale.Harness.Experiments.duration_ns;
      key_space = 2 * scale.Harness.Experiments.buckets;
      update_pct;
      prefill = scale.Harness.Experiments.map_prefill;
      seed = (seed * 7919) + 1;
    }
  in
  let t0 = Clock.now_ns () in
  let setup_span = Tracer.enter tr "setup" in
  let calls = { calls = 0; sampled = 0; sampled_ns = 0 } in
  let mem, sched, env, rt =
    Tracer.with_span tr "setup.world" (fun () ->
        let mem, sched, direct = Harness.Systems.world p ~kind:Harness.Systems.Respct in
        let env =
          if traced then
            Simsched.Env.make_backend
              (wrap_backend (Simnvm.Backend.of_memsys mem) calls)
              sched
          else direct
        in
        let rt = Respct.Runtime.create ~cfg:(Harness.Systems.rt_cfg p) env in
        Respct.Runtime.start rt;
        (mem, sched, env, rt))
  in
  let t_built = Clock.now_ns () in
  let bus = if traced then Some (subscribe_bus sched) else None in
  let registry = Obs.Metrics.create () in
  if traced then ignore (Obs.Memobs.attach registry mem);
  let st =
    {
      window = false;
      all_fresh = 0;
      all_remove_hits = 0;
      inserts = 0;
      fresh = 0;
      removes = 0;
      remove_hits = 0;
      searches = 0;
      search_hits = 0;
      raised = 0;
      starts = Array.make (threads + 1) 0.0;
      lat = Quant.Fbuf.create ();
    }
  in
  let marks = Rep.Marks.create () in
  let on_op =
    let n = ref 0 in
    fun () ->
      incr n;
      if !n land (mark_every - 1) = 0 then begin
        Rep.Marks.mark marks;
        if traced then Gcpause.poll ()
      end
  in
  let map = ref None in
  let build_ns = ref 0 in
  let build () =
    Tracer.with_span tr "setup.build" (fun () ->
        let b0 = Clock.now_ns () in
        let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:p.Harness.Systems.buckets in
        map := Some m;
        let sys =
          {
            Pds.Ops.sys_register = (fun ~slot -> Respct.Runtime.register rt ~slot);
            sys_deregister = (fun ~slot -> Respct.Runtime.deregister rt ~slot);
            sys_allow = (fun ~slot -> Respct.Runtime.checkpoint_allow rt ~slot);
            sys_prevent =
              (fun ~slot -> Respct.Runtime.checkpoint_prevent_nolock rt ~slot);
            sys_stop = (fun () -> Respct.Runtime.stop rt);
          }
        in
        build_ns := Clock.now_ns () - b0;
        (wrap_ops sched ~on_op (Pds.Hashmap_respct.ops m) st, sys))
  in
  let t_window = ref 0 in
  let window_span = ref (-1) in
  let gc0 = ref (Rep.gc_mark ()) in
  let pause0 = ref 0 in
  let on_window () =
    Tracer.leave tr setup_span;
    st.window <- true;
    Option.iter (fun c -> c.counting <- true) bus;
    Obs.Metrics.reset registry;
    calls.calls <- 0;
    calls.sampled <- 0;
    calls.sampled_ns <- 0;
    if traced then pause0 := Gcpause.total_ns ();
    gc0 := Rep.gc_mark ();
    window_span := Tracer.enter tr "window";
    t_window := Clock.now_ns ();
    Rep.Marks.mark marks
  in
  let r =
    Harness.Workload.run_map ~mem ~on_window ~sched ~params:wl ~build ()
  in
  Rep.Marks.mark marks;
  let t_end = Clock.now_ns () in
  Tracer.leave tr !window_span;
  let ops = r.Harness.Workload.total_ops in
  let gc_window = Rep.gc_layer ~units:ops !gc0 in
  let window_ns = t_end - !t_window in
  let pause_ns = if traced then Gcpause.total_ns () - !pause0 else 0 in
  let stats = Simnvm.Memsys.stats mem in
  let cs = Respct.Runtime.stats rt in
  let m = Option.get !map in
  let live =
    List.length
      (Pds.Hashmap_respct.bindings_of ~read:(Simnvm.Memsys.peek mem)
         ~line_words:(Simsched.Env.line_words env)
         ~fuel:(Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words
         ~heads:(Pds.Hashmap_respct.heads m)
         ~buckets:(Pds.Hashmap_respct.buckets m))
  in
  let expected_live = st.all_fresh - st.all_remove_hits in
  let violations =
    (if live <> expected_live then
       [
         Printf.sprintf
           "map: %d live keys, but fresh inserts - hit removes = %d" live
           expected_live;
       ]
     else [])
    @
    if st.raised > 0 then [ Printf.sprintf "map: %d ops raised" st.raised ]
    else []
  in
  let ckpts = max 1 cs.Respct.Runtime.checkpoints in
  let per_ckpt x = x /. float_of_int ckpts in
  let lat = Quant.Fbuf.sorted st.lat in
  let sim =
    [
      ("sim_mops", r.Harness.Workload.mops);
      ("sim_stall_us_per_ckpt", per_ckpt cs.Respct.Runtime.stall_ns /. 1e3);
      ("sim_p50_latency_us", Quant.percentile lat 50.0 /. 1e3);
      ("sim_p99_latency_us", Quant.percentile lat 99.0 /. 1e3);
      ("sim_latency_samples", float_of_int (Array.length lat));
    ]
  in
  let acc = Simnvm.Stats.accesses stats in
  let fingerprint =
    List.map
      (fun (k, v) -> (k, float_of_int v))
      [
        ("ops", ops);
        ("live", live);
        ("loads", stats.Simnvm.Stats.loads);
        ("stores", stats.Simnvm.Stats.stores);
        ("hits", stats.Simnvm.Stats.hits);
        ("nvm_misses", stats.Simnvm.Stats.nvm_misses);
        ("nvm_writebacks", stats.Simnvm.Stats.nvm_writebacks);
        ("pwbs", stats.Simnvm.Stats.pwbs);
        ("psyncs", stats.Simnvm.Stats.psyncs);
        ("checkpoints", cs.Respct.Runtime.checkpoints);
        ("flushed_addrs", cs.Respct.Runtime.flushed_addrs);
        ("latency_samples", Array.length lat);
      ]
    @ [
        ("flush_ns", cs.Respct.Runtime.flush_ns);
        ("stall_ns", cs.Respct.Runtime.stall_ns);
      ]
  in
  let per_op x = float_of_int x /. float_of_int (max 1 ops) in
  let layer =
    let self_ns =
      if calls.sampled = 0 then 0.0
      else
        float_of_int calls.sampled_ns /. float_of_int calls.sampled
        *. float_of_int calls.calls
    in
    let counter name = Obs.Metrics.value (Obs.Metrics.counter registry name) in
    [
      ("simnvm.accesses_per_op", per_op acc);
      ("simnvm.nvm_misses_per_op", per_op stats.Simnvm.Stats.nvm_misses);
      ("simnvm.nvm_writebacks_per_op", per_op stats.Simnvm.Stats.nvm_writebacks);
      ("simnvm.pwbs_per_op", per_op stats.Simnvm.Stats.pwbs);
      ("simnvm.hit_rate", Simnvm.Stats.hit_rate stats);
      ("respct.checkpoints", float_of_int cs.Respct.Runtime.checkpoints);
      ( "respct.flushed_addrs_per_ckpt",
        per_ckpt (float_of_int cs.Respct.Runtime.flushed_addrs) );
      ("respct.sim_flush_us_per_ckpt", per_ckpt cs.Respct.Runtime.flush_ns /. 1e3);
      ( "respct.sim_overlap_us_per_ckpt",
        per_ckpt cs.Respct.Runtime.overlap_ns /. 1e3 );
      ("pds.insert_fresh_share", Rep.ratio st.fresh st.inserts);
      ("pds.remove_hit_share", Rep.ratio st.remove_hits st.removes);
      ("pds.search_hit_share", Rep.ratio st.search_hits st.searches);
      ( "harness.world_build_host_s",
        float_of_int (t_built - t0 + !build_ns) *. 1e-9 );
      ( "harness.prefill_host_s",
        float_of_int (!t_window - t_built - !build_ns) *. 1e-9 );
    ]
    @ (if traced then
         let c = Option.get bus in
         [
           ( "simnvm.clean_pwb_share",
             Rep.ratio (counter "mem.pwbs.clean") (counter "mem.pwbs") );
           ("simnvm.self_ns_per_call",
            if calls.sampled = 0 then 0.0
            else float_of_int calls.sampled_ns /. float_of_int calls.sampled);
           ( "simsched.fibers",
             float_of_int
               (Array.fold_left (fun n b -> if b then n + 1 else n) 0 c.seen) );
           ("simsched.lock_acquires_per_op", per_op c.acquires);
           ("simsched.restart_points_per_op", per_op c.rps);
           ( "simsched.above_memsys_ns_per_access",
             (float_of_int window_ns -. self_ns) /. float_of_int (max 1 acc) );
           ("gc.pause_share", float_of_int pause_ns /. float_of_int (max 1 window_ns));
         ]
       else [])
    @ gc_window
  in
  {
    Rep.setup_s = float_of_int (!t_window - t0) *. 1e-9;
    window_s = float_of_int window_ns *. 1e-9;
    segments = Rep.Marks.segments marks;
    units = ops;
    attempted = ops;
    failed = st.raised;
    sim;
    fingerprint;
    layer;
    violations;
  }
