(* crash-explore: Crashtest.Explore.explore over
   Scenarios.respct_map ~fault_mode:`Verified, in classic mode and with
   ~pipeline:true. Thousands of short-lived worlds: image copy and reset,
   and Recovery.run_verified, instead of the map workload's loads, stores
   and checkpoints.

   The benchmark wraps the scenario's [make] and each instance's [run] and
   [recover_check]. The explorer's first world is its pilot, so the window
   opens when [make] is called the second time. A unit of work is a
   checked crash image. The pilot is too short to time once, so set-up is
   timed on pilots run here before each exploration (see [pilot_ns]).

   The scenario keeps its scheduler and runtime to itself, so the virtual
   results come from twins: the same world rebuilt here from the
   scenario's public configuration ([Scenarios.mem_cfg],
   [Scenarios.rt_cfg_integrity], [Workmix.map_ops]) and run once to
   completion. The twin of every explored world must reach the memory
   counts of the explorer's pilot, which proves it is the same execution.
*)

let n_ops = 10

(* Scenario worlds explored per run and mode. *)
let worlds = 8

(* Twin worlds per mode: the explored seed pairs first, then more of the
   same scenario, so the virtual results pool enough ops (a world has only
   [n_ops]) to be steady from one --seed to the next. *)
let twin_worlds = 64

(* [Scenarios] builds its maps with this many buckets (not exported). *)
let scenario_buckets = 8

let seeds ~seed k = ((seed * 31) + (k * 7) + 1, (seed * 17) + (k * 13) + 5)

let scenario ?mutant ~pipeline ~sched_seed ~mem_seed () =
  match mutant with
  | None ->
      Crashtest.Scenarios.respct_map ~fault_mode:`Verified ~pipeline ~sched_seed
        ~mem_seed ~pcso:true ~n_ops ()
  | Some m ->
      (* the planted-defect self-test, at the op count the crash matrix
         gives this mutant (twice its smoke preset's 18): the bug fires
         only in an overlap window that also holds a conflicting re-log *)
      Crashtest.Scenarios.respct_map ~pipeline ~mutant:m ~sched_seed ~mem_seed
        ~pcso:true ~n_ops:36 ()

let counts_of (s : Simnvm.Stats.t) =
  [|
    s.Simnvm.Stats.loads;
    s.Simnvm.Stats.stores;
    s.Simnvm.Stats.hits;
    s.Simnvm.Stats.nvm_misses;
    s.Simnvm.Stats.nvm_writebacks;
    s.Simnvm.Stats.pwbs;
    s.Simnvm.Stats.psyncs;
  |]

(* ---- the twin: the scenario's world with its clocks in reach ---- *)

type twin = {
  tw_counts : int array;  (** memory counts after the run *)
  tw_ops : int;
  tw_elapsed_ns : float;
  tw_stats : Respct.Runtime.stats;
  tw_lat : float list;  (** virtual op latency, op start to restart point *)
  tw_fibers : int;
  tw_acquires : int;
  tw_rps : int;
  tw_inserts : int * int;  (** (fresh, attempted) *)
  tw_removes : int * int;
  tw_searches : int * int;
}

(* The scenario's world, driven in the scenario's order: runtime,
   checkpoint coordinator, then the worker. *)
let twin ~pipeline ~sched_seed ~mem_seed =
  let mem =
    Simnvm.Memsys.create (Crashtest.Scenarios.mem_cfg ~mem_seed ~pcso:true)
  in
  let sched = Simsched.Scheduler.create ~seed:sched_seed () in
  let env = Simsched.Env.make mem sched in
  let acquires = ref 0 and rps = ref 0 in
  let seen = Hashtbl.create 8 in
  ignore
    (Simsched.Trace.subscribe (Simsched.Scheduler.trace_bus sched) (fun ev ->
         match ev with
         | Simsched.Trace.Acquire { tid; _ } ->
             Hashtbl.replace seen tid ();
             incr acquires
         | Simsched.Trace.Restart_point { tid; _ } ->
             Hashtbl.replace seen tid ();
             incr rps
         | Simsched.Trace.Load { tid; _ } | Simsched.Trace.Store { tid; _ } ->
             Hashtbl.replace seen tid ()
         | _ -> ()));
  let cfg = { Crashtest.Scenarios.rt_cfg_integrity with Respct.Runtime.pipeline } in
  let period = cfg.Respct.Runtime.period_ns in
  let ops = Crashtest.Workmix.map_ops ~seed:(mem_seed + 11) ~n:n_ops () in
  let lat = ref [] in
  let ins = ref (0, 0) and rem = ref (0, 0) and sea = ref (0, 0) in
  let bump r hit =
    let h, n = !r in
    r := ((if hit then h + 1 else h), n + 1)
  in
  let r = Respct.Runtime.create ~cfg env in
  let finished = ref false in
  ignore
    (Simsched.Scheduler.spawn ~name:"ckpt" sched (fun () ->
         let rec loop at =
           if not !finished then begin
             Simsched.Scheduler.sleep_until sched at;
             if not !finished then begin
               Respct.Runtime.run_checkpoint r ~on_flushed:ignore;
               loop (at +. period)
             end
           end
         in
         loop period));
  ignore
    (Respct.Runtime.spawn r ~slot:0 (fun _ ->
         let m = Pds.Hashmap_respct.create r ~slot:0 ~buckets:scenario_buckets in
         (* the scenario reads the epoch here (a load in classic mode) *)
         ignore (Respct.Runtime.epoch r);
         List.iter
           (fun op ->
             let t0 = Simsched.Scheduler.now sched in
             (match op with
             | Crashtest.Workmix.Insert (key, value) ->
                 bump ins (Pds.Hashmap_respct.insert m ~slot:0 ~key ~value)
             | Crashtest.Workmix.Remove key ->
                 bump rem (Pds.Hashmap_respct.remove m ~slot:0 ~key)
             | Crashtest.Workmix.Search key ->
                 bump sea (Pds.Hashmap_respct.search m ~slot:0 ~key <> None));
             Respct.Runtime.rp r ~slot:0 1;
             lat := (Simsched.Scheduler.now sched -. t0) :: !lat)
           ops;
         finished := true;
         if pipeline then Respct.Runtime.stop r));
  (match Simsched.Scheduler.run sched with
  | Simsched.Scheduler.Completed | Simsched.Scheduler.Crash_interrupt _ -> ());
  {
    tw_counts = counts_of (Simnvm.Memsys.stats mem);
    tw_ops = List.length ops;
    tw_elapsed_ns = Simsched.Scheduler.elapsed sched;
    tw_stats = Respct.Runtime.stats r;
    tw_lat = !lat;
    tw_fibers = Hashtbl.length seen;
    tw_acquires = !acquires;
    tw_rps = !rps;
    tw_inserts = !ins;
    tw_removes = !rem;
    tw_searches = !sea;
  }

(* ---- the explorer, wrapped from outside ---- *)

type probe = {
  mutable worlds : int;
  mutable pilot_counts : int array;
  mutable prev : Simnvm.Memsys.t option;
  window_counts : int array; (* memory counts of the post-pilot worlds *)
  mutable pilot_end : int;
  mutable make_ns : int;
  mutable run_ns : int;
  mutable check_ns : int;
  marks : Rep.Marks.t; (* window start, then every [mark_every] worlds *)
}

(* Host-time mark every [mark_every] worlds after the pilot: pieces of
   about 25 ms. *)
let mark_every = 16

let timed tr name acc f =
  Tracer.with_span tr name (fun () ->
      let t0 = Clock.now_ns () in
      match f () with
      | v ->
          acc (Clock.now_ns () - t0);
          v
      | exception e ->
          acc (Clock.now_ns () - t0);
          raise e)

(* Add a finished world's memory counts: the pilot's on their own, every
   later world's into the window totals. *)
let fold pb =
  match pb.prev with
  | None -> ()
  | Some m ->
      let c = counts_of (Simnvm.Memsys.stats m) in
      if pb.worlds = 1 then pb.pilot_counts <- c
      else
        Array.iteri
          (fun i v -> pb.window_counts.(i) <- pb.window_counts.(i) + v)
          c;
      pb.prev <- None

let wrap tr (pb : probe) ~memobs (s : Crashtest.Explore.scenario) =
  let make ~n_ops =
    fold pb;
    if pb.worlds = 1 then pb.pilot_end <- Clock.now_ns ();
    if pb.worlds >= 1 && (pb.worlds - 1) mod mark_every = 0 then
      Rep.Marks.mark pb.marks;
    if tr.Tracer.on then Gcpause.poll ();
    let inst =
      timed tr "make" (fun d -> pb.make_ns <- pb.make_ns + d) (fun () ->
          s.Crashtest.Explore.make ~n_ops)
    in
    pb.worlds <- pb.worlds + 1;
    pb.prev <- Some inst.Crashtest.Explore.mem;
    Option.iter
      (fun registry -> ignore (Obs.Memobs.attach registry inst.Crashtest.Explore.mem))
      memobs;
    {
      inst with
      Crashtest.Explore.run =
        (fun () ->
          timed tr "run"
            (fun d -> pb.run_ns <- pb.run_ns + d)
            inst.Crashtest.Explore.run);
      recover_check =
        (fun () ->
          timed tr "recover_check"
            (fun d -> pb.check_ns <- pb.check_ns + d)
            inst.Crashtest.Explore.recover_check);
    }
  in
  { s with Crashtest.Explore.make }

(* The explorer's set-up is its pilot: one world made and run to completion
   while its persist boundaries are counted, about 0.2 ms. That is too short
   to time once, so a scenario's set-up is the median of [pilot_reps] such
   pilots, made and run here as the explorer does. *)
let pilot_reps = 15

let pilot_ns tr (s : Crashtest.Explore.scenario) =
  Tracer.with_span tr "setup.pilot" (fun () ->
      let one () =
        let t0 = Clock.now_ns () in
        let inst = s.Crashtest.Explore.make ~n_ops:s.Crashtest.Explore.n_ops in
        (try
           ignore
             (Crashtest.Crashpoint.pilot inst.Crashtest.Explore.mem
                ~completed:inst.Crashtest.Explore.completed
                inst.Crashtest.Explore.run)
         with _ -> ());
        float_of_int (Clock.now_ns () - t0)
      in
      int_of_float (Quant.median (List.init pilot_reps (fun _ -> one ()))))

type explored = {
  outcome : Crashtest.Explore.outcome;
  setup_ns : int;  (** [pilot_ns] of the scenario *)
  pilot_ns : int;  (** the explorer's own pilot, up to the window *)
  window_ns : int;
  probe : probe;
}

let explore_one tr ~memobs ?mutant ~pipeline ~sched_seed ~mem_seed () =
  let pb =
    {
      worlds = 0;
      pilot_counts = [||];
      prev = None;
      window_counts = Array.make 7 0;
      pilot_end = 0;
      make_ns = 0;
      run_ns = 0;
      check_ns = 0;
      marks = Rep.Marks.create ();
    }
  in
  let s = scenario ?mutant ~pipeline ~sched_seed ~mem_seed () in
  let setup_ns = pilot_ns tr s in
  let t0 = Clock.now_ns () in
  let outcome =
    Tracer.with_span tr "explore" (fun () ->
        Crashtest.Explore.explore
          ~stop_at_first_failure:(mutant <> None)
          (wrap tr pb ~memobs s))
  in
  if pb.worlds >= 2 then Rep.Marks.mark pb.marks;
  let t1 = Clock.now_ns () in
  fold pb;
  let pilot_end = if pb.worlds >= 2 then pb.pilot_end else t1 in
  {
    outcome;
    setup_ns;
    pilot_ns = pilot_end - t0;
    window_ns = t1 - pilot_end;
    probe = pb;
  }

let run ?mutant ~(tr : Tracer.t) ~seed () : Rep.t =
  let traced = tr.Tracer.on in
  let pause0 = if traced then Gcpause.total_ns () else 0 in
  let gc0 = Rep.gc_mark () in
  (* the traced run counts clean pwbs in every explored world *)
  let memobs = if traced then Some (Obs.Metrics.create ()) else None in
  let explore_k ~pipeline k =
    let sched_seed, mem_seed = seeds ~seed k in
    let e = explore_one tr ~memobs ?mutant ~pipeline ~sched_seed ~mem_seed () in
    (e, pipeline, sched_seed, mem_seed)
  in
  let runs =
    match mutant with
    | None ->
        List.concat_map
          (fun pipeline -> List.init worlds (explore_k ~pipeline))
          [ false; true ]
    | Some _ ->
        (* explore pipelined worlds until one exposes the mutant *)
        let rec hunt k acc =
          let ((e, _, _, _) as r) = explore_k ~pipeline:true k in
          if e.outcome.Crashtest.Explore.failures <> [] || k + 1 = 4 * worlds
          then List.rev (r :: acc)
          else hunt (k + 1) (r :: acc)
        in
        hunt 0 []
  in
  let sum f = List.fold_left (fun a (e, _, _, _) -> a + f e) 0 runs in
  let images = sum (fun e -> e.outcome.Crashtest.Explore.images) in
  let failures = sum (fun e -> List.length e.outcome.Crashtest.Explore.failures) in
  let truncated = sum (fun e -> e.outcome.Crashtest.Explore.truncated) in
  let boundaries = sum (fun e -> e.outcome.Crashtest.Explore.boundaries) in
  let window_ns = sum (fun e -> e.window_ns) in
  let gc_window = Rep.gc_layer ~units:images gc0 in
  let pause_ns = if traced then Gcpause.total_ns () - pause0 else 0 in
  let checked, twins =
    if mutant <> None then ([], [])
    else
      let checked =
        List.map
          (fun (e, pipeline, sched_seed, mem_seed) ->
            (e, twin ~pipeline ~sched_seed ~mem_seed))
          runs
      in
      let more =
        List.concat_map
          (fun pipeline ->
            List.init (twin_worlds - worlds) (fun i ->
                let sched_seed, mem_seed = seeds ~seed (worlds + i) in
                twin ~pipeline ~sched_seed ~mem_seed))
          [ false; true ]
      in
      (checked, List.map snd checked @ more)
  in
  let violations =
    List.concat_map
      (fun (e, _, _, _) ->
        let o = e.outcome in
        let name = o.Crashtest.Explore.scenario.Crashtest.Explore.name in
        (if o.Crashtest.Explore.failures <> [] then
           [
             Printf.sprintf "%s: %d oracle failures, first: %s" name
               (List.length o.Crashtest.Explore.failures)
               (List.hd (List.rev o.Crashtest.Explore.failures)).Crashtest.Explore.reason;
           ]
         else [])
        @
        if o.Crashtest.Explore.truncated > 0 then
          [ Printf.sprintf "%s: %d images truncated" name o.Crashtest.Explore.truncated ]
        else [])
      runs
    @ List.filter_map
        (fun (e, t) ->
          if e.probe.pilot_counts = t.tw_counts then None
          else
            Some
              (Printf.sprintf "%s: twin world diverged from the explorer's pilot"
                 e.outcome.Crashtest.Explore.scenario.Crashtest.Explore.name))
        checked
  in
  let tsum f = List.fold_left (fun a t -> a + f t) 0 twins in
  let tsumf f = List.fold_left (fun a t -> a +. f t) 0.0 twins in
  let t_ops = tsum (fun t -> t.tw_ops) in
  let ckpts = max 1 (tsum (fun t -> t.tw_stats.Respct.Runtime.checkpoints)) in
  let per_ckpt x = x /. float_of_int ckpts in
  let lat =
    let a = Array.of_list (List.concat_map (fun t -> t.tw_lat) twins) in
    Array.sort Float.compare a;
    a
  in
  let share f =
    let h, n =
      List.fold_left
        (fun (h, n) t ->
          let h', n' = f t in
          (h + h', n + n'))
        (0, 0) twins
    in
    Rep.ratio h n
  in
  let sim =
    if twins = [] then []
    else
      [
        ( "sim_mops",
          float_of_int t_ops /. tsumf (fun t -> t.tw_elapsed_ns) *. 1e3 );
        ( "sim_stall_us_per_ckpt",
          per_ckpt (tsumf (fun t -> t.tw_stats.Respct.Runtime.stall_ns)) /. 1e3 );
        ("sim_p50_latency_us", Quant.percentile lat 50.0 /. 1e3);
        ("sim_p99_latency_us", Quant.percentile lat 99.0 /. 1e3);
        ("sim_latency_samples", float_of_int (Array.length lat));
      ]
  in
  let wc = Array.make 7 0 in
  List.iter
    (fun (e, _, _, _) ->
      Array.iteri (fun i v -> wc.(i) <- wc.(i) + v) e.probe.window_counts)
    runs;
  let fingerprint =
    List.map
      (fun (k, v) -> (k, float_of_int v))
      [
        ("boundaries", boundaries);
        ("images", images);
        ("truncated", truncated);
        ("failures", failures);
        ("loads", wc.(0));
        ("stores", wc.(1));
        ("pwbs", wc.(5));
        ("twin_checkpoints", ckpts);
      ]
  in
  let per_image x = float_of_int x /. float_of_int (max 1 images) in
  let make_ns = sum (fun e -> e.probe.make_ns)
  and run_ns = sum (fun e -> e.probe.run_ns)
  and check_ns = sum (fun e -> e.probe.check_ns) in
  let world_count = sum (fun e -> e.probe.worlds) in
  let accesses = wc.(0) + wc.(1) in
  let layer =
    [
      ("crashtest.boundaries", float_of_int boundaries);
      ("crashtest.images", float_of_int images);
      ("crashtest.truncated", float_of_int truncated);
      ("crashtest.failures", float_of_int failures);
      ("simnvm.accesses_per_op", per_image accesses);
      ("simnvm.nvm_misses_per_op", per_image wc.(3));
      ("simnvm.nvm_writebacks_per_op", per_image wc.(4));
      ("simnvm.pwbs_per_op", per_image wc.(5));
      ("simnvm.hit_rate", Rep.ratio wc.(2) accesses);
      ( "simsched.fibers",
        Rep.ratio (tsum (fun t -> t.tw_fibers)) (List.length twins) );
      ( "simsched.lock_acquires_per_op",
        Rep.ratio (tsum (fun t -> t.tw_acquires)) t_ops );
      ( "simsched.restart_points_per_op",
        Rep.ratio (tsum (fun t -> t.tw_rps)) t_ops );
      ("respct.checkpoints", float_of_int ckpts);
      ( "respct.flushed_addrs_per_ckpt",
        per_ckpt
          (float_of_int
             (tsum (fun t -> t.tw_stats.Respct.Runtime.flushed_addrs))) );
      ( "respct.sim_flush_us_per_ckpt",
        per_ckpt (tsumf (fun t -> t.tw_stats.Respct.Runtime.flush_ns)) /. 1e3 );
      ( "respct.sim_overlap_us_per_ckpt",
        per_ckpt (tsumf (fun t -> t.tw_stats.Respct.Runtime.overlap_ns)) /. 1e3 );
      ("pds.insert_fresh_share", share (fun t -> t.tw_inserts));
      ("pds.remove_hit_share", share (fun t -> t.tw_removes));
      ("pds.search_hit_share", share (fun t -> t.tw_searches));
    ]
    @ (match memobs with
      | Some registry ->
          let counter name = Obs.Metrics.value (Obs.Metrics.counter registry name) in
          [
            ( "simnvm.clean_pwb_share",
              Rep.ratio (counter "mem.pwbs.clean") (counter "mem.pwbs") );
          ]
      | None -> [])
    @ (if traced then
         let total = sum (fun e -> e.pilot_ns + e.window_ns) in
         let us_per n x = float_of_int x /. 1e3 /. float_of_int (max 1 n) in
         [
           ("crashtest.make_us_per_world", us_per world_count make_ns);
           ("crashtest.run_us_per_world", us_per world_count run_ns);
           ("crashtest.recover_check_us_per_image", us_per images check_ns);
           ( "crashtest.explorer_self_share",
             Rep.ratio (total - make_ns - run_ns - check_ns) total );
           ("gc.pause_share", float_of_int pause_ns /. float_of_int (max 1 total));
         ]
       else [])
    @ gc_window
  in
  {
    Rep.setup_s = float_of_int (sum (fun e -> e.setup_ns)) *. 1e-9;
    window_s = float_of_int window_ns *. 1e-9;
    segments =
      Array.concat
        (List.map (fun (e, _, _, _) -> Rep.Marks.segments e.probe.marks) runs);
    units = images;
    attempted = images;
    failed = failures;
    sim;
    fingerprint;
    layer;
    violations;
  }
