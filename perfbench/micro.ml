(* Layer microbenchmarks: host ns per call of one layer's public functions,
   each in a fresh world of its own. They run in the traced run only. *)

let time f =
  let t0 = Clock.now_ns () in
  f ();
  Clock.now_ns () - t0

let per n ns = float_of_int ns /. float_of_int (max 1 n)

(* Median of three timings of a freshly set-up measurement. *)
let median3 f = Quant.median [ f (); f (); f () ]

(* ---- simnvm: Memsys load/store with a hit/miss mix, pwb, psync ---- *)

let memsys_load_store () =
  let cfg = Simnvm.Memsys.default_config in
  let mem = Simnvm.Memsys.create cfg in
  let lw = cfg.Simnvm.Memsys.line_words in
  let cache_words = cfg.Simnvm.Memsys.sets * cfg.Simnvm.Memsys.ways * lw in
  let rng = Simnvm.Rng.create 7 in
  let n = 400_000 in
  (* three accesses in four go to a hot quarter of the cache, the rest
     anywhere in NVMM: mostly hits, with a steady stream of misses *)
  let addrs =
    Array.init n (fun _ ->
        if Simnvm.Rng.int rng 4 < 3 then Simnvm.Rng.int rng (cache_words / 4)
        else Simnvm.Rng.int rng cfg.Simnvm.Memsys.nvm_words)
  in
  per n
    (time (fun () ->
         for i = 0 to n - 1 do
           if i land 1 = 0 then ignore (Simnvm.Memsys.load mem addrs.(i))
           else Simnvm.Memsys.store mem addrs.(i) i
         done))

let memsys_pwb () =
  let cfg = Simnvm.Memsys.default_config in
  let mem = Simnvm.Memsys.create cfg in
  let lw = cfg.Simnvm.Memsys.line_words in
  let lines = 4096 and rounds = 25 in
  let total = ref 0 in
  for r = 1 to rounds do
    for l = 0 to lines - 1 do
      Simnvm.Memsys.store mem (l * lw) r
    done;
    total :=
      !total
      + time (fun () ->
            for l = 0 to lines - 1 do
              Simnvm.Memsys.pwb mem (l * lw)
            done)
  done;
  per (lines * rounds) !total

let memsys_psync () =
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let n = 200_000 in
  per n
    (time (fun () ->
         for _ = 1 to n do
           Simnvm.Memsys.psync mem
         done))

(* ---- simsched: Env access with 1 to 64 fibers ---- *)

let env_access ~threads =
  let cfg = Simnvm.Memsys.default_config in
  let mem = Simnvm.Memsys.create cfg in
  let lw = cfg.Simnvm.Memsys.line_words in
  let sched = Simsched.Scheduler.create ~quantum:50.0 () in
  let env = Simsched.Env.make mem sched in
  let accesses = 256_000 in
  let pairs = accesses / threads / 2 in
  (* the load/store mix of [memsys_load_store], per fiber: three in four
     to its own 64 lines, the rest anywhere in NVMM *)
  for w = 0 to threads - 1 do
    let rng = Simnvm.Rng.create (w + 1) in
    let base = w * 64 * lw in
    let addrs =
      Array.init pairs (fun _ ->
          if Simnvm.Rng.int rng 4 < 3 then base + Simnvm.Rng.int rng (64 * lw)
          else Simnvm.Rng.int rng cfg.Simnvm.Memsys.nvm_words)
    in
    ignore
      (Simsched.Scheduler.spawn sched (fun () ->
           Array.iteri
             (fun i a ->
               ignore (Simsched.Env.load env a);
               Simsched.Env.store env a i)
             addrs))
  done;
  per (2 * pairs * threads)
    (time (fun () -> ignore (Simsched.Scheduler.run sched)))

(* ---- respct: update, checkpoint, recovery ---- *)

let respct_world ~pipeline =
  let mem =
    Simnvm.Memsys.create
      {
        Simnvm.Memsys.default_config with
        Simnvm.Memsys.nvm_words = 1 lsl 22;
        dram_words = 1 lsl 20;
      }
  in
  let sched = Simsched.Scheduler.create ~quantum:50.0 () in
  let env = Simsched.Env.make mem sched in
  let cfg =
    {
      Respct.Runtime.default_config with
      Respct.Runtime.max_threads = 4;
      registry_per_slot = 1 lsl 17;
      flusher_pool = 4;
      pipeline;
    }
  in
  (mem, sched, Respct.Runtime.create ~cfg env)

type respct_timings = {
  logged_ns : float;
  unlogged_ns : float;
  ckpt_ns_per_line : float;
  recovery_ns_per_entry : float;
}

(* One epoch of first (logged) and repeat (unlogged) updates over [cells]
   InCLL cells, one checkpoint that flushes them, then (classic only) a
   second epoch of updates cut by a crash and recovered. *)
let respct ~pipeline =
  let cells = 16_384 in
  let mem, sched, rt = respct_world ~pipeline in
  let stats = Simnvm.Memsys.stats mem in
  let logged = ref 0 and unlogged = ref 0 in
  let ck_start = ref 0 and pwbs0 = ref 0 in
  (* one registry entry per cell, so recovery scans [cells] entries *)
  let cellv = Array.make cells 0 in
  let cell i = cellv.(i) in
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ ->
         for i = 0 to cells - 1 do
           cellv.(i) <- Respct.Runtime.alloc_incll rt ~slot:0 0
         done;
         logged :=
           time (fun () ->
               for i = 0 to cells - 1 do
                 Respct.Runtime.update rt ~slot:0 (cell i) 1
               done);
         unlogged :=
           time (fun () ->
               for i = 0 to cells - 1 do
                 Respct.Runtime.update rt ~slot:0 (cell i) 2
               done);
         ignore
           (Simsched.Scheduler.spawn sched (fun () ->
                pwbs0 := stats.Simnvm.Stats.pwbs;
                ck_start := Clock.now_ns ();
                Respct.Runtime.run_checkpoint rt;
                if pipeline then Respct.Runtime.stop rt))));
  ignore (Simsched.Scheduler.run sched);
  let ck_ns = Clock.now_ns () - !ck_start in
  let ckpt_ns_per_line = per (stats.Simnvm.Stats.pwbs - !pwbs0) ck_ns in
  let recovery_ns_per_entry =
    if pipeline then nan
    else begin
      ignore
        (Respct.Runtime.spawn rt ~slot:0 (fun _ ->
             for i = 0 to cells - 1 do
               Respct.Runtime.update rt ~slot:0 (cell i) 3
             done));
      ignore (Simsched.Scheduler.run sched);
      Simnvm.Memsys.crash mem;
      let layout = Respct.Runtime.layout rt in
      let scanned = ref 0 in
      let ns =
        time (fun () ->
            let rep = Respct.Recovery.run ~layout mem in
            scanned := rep.Respct.Recovery.scanned)
      in
      per !scanned ns
    end
  in
  {
    logged_ns = per cells !logged;
    unlogged_ns = per cells !unlogged;
    ckpt_ns_per_line;
    recovery_ns_per_entry;
  }

(* ---- pds: one Hashmap_respct op on a single fiber ---- *)

let pds_op () =
  let _mem, sched, rt = respct_world ~pipeline:false in
  let n = 40_000 in
  let ns = ref 0 in
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ ->
         let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:4096 in
         let rng = Simnvm.Rng.create 11 in
         ns :=
           time (fun () ->
               for i = 1 to n do
                 let key = Simnvm.Rng.int rng 8192 in
                 let dice = Simnvm.Rng.int rng 4 in
                 (if dice = 0 then
                    ignore (Pds.Hashmap_respct.insert m ~slot:0 ~key ~value:i)
                  else if dice = 1 then
                    ignore (Pds.Hashmap_respct.remove m ~slot:0 ~key)
                  else ignore (Pds.Hashmap_respct.search m ~slot:0 ~key));
                 Respct.Runtime.rp rt ~slot:0 1
               done)));
  ignore (Simsched.Scheduler.run sched);
  per n !ns

let run (tr : Tracer.t) =
  let span name f = Tracer.with_span tr ("micro." ^ name) f in
  let m name f = (name, span name (fun () -> median3 f)) in
  let env t =
    m (Printf.sprintf "simsched.micro.env_ns_per_access.t%d" t) (fun () ->
        env_access ~threads:t)
  in
  let classic = span "respct" (fun () -> respct ~pipeline:false) in
  let pipelined = span "respct.pipelined" (fun () -> respct ~pipeline:true) in
  [
    m "simnvm.micro.load_store_ns" memsys_load_store;
    m "simnvm.micro.pwb_ns" memsys_pwb;
    m "simnvm.micro.psync_ns" memsys_psync;
    env 1;
    env 4;
    env 16;
    env 64;
    ("respct.micro.update_ns.logged", classic.logged_ns);
    ("respct.micro.update_ns.unlogged", classic.unlogged_ns);
    ("respct.micro.checkpoint_ns_per_line.classic", classic.ckpt_ns_per_line);
    ("respct.micro.checkpoint_ns_per_line.pipelined", pipelined.ckpt_ns_per_line);
    ("respct.micro.recovery_ns_per_entry", classic.recovery_ns_per_entry);
    m "pds.micro.op_ns" pds_op;
  ]
