(* Builders assembling one (world, system, structure) per evaluated system.

   Each builder returns the fresh scheduler plus a [build] closure that the
   workload driver calls inside its setup thread (structure creation
   performs simulated memory accesses and must run on a simulated thread). *)

type params = {
  max_threads : int;
  period_ns : float;
  flusher_pool : int;
  buckets : int;
  nvm_words : int;
  dram_words : int;
  seed : int;
  quantum : float;
  cache_sets : int;
  cache_ways : int;
  mode : Respct.Runtime.mode; (* ResPCT variants (Figure 10) *)
  registry_per_slot : int;
  eadr : bool;
  evict_rate : float; (* spontaneous-eviction probability of the world *)
  pcso : bool; (* line-granular write-back; false = word-granular ablation *)
  integrity : bool; (* checksum-sealed ResPCT metadata (faulty-media mode) *)
  pipeline : bool; (* ResPCT pipelined checkpointing (async epoch advance) *)
}

let default_params =
  {
    max_threads = 65;
    period_ns = 64.0e6;
    flusher_pool = 8;
    buckets = 1 lsl 14;
    nvm_words = 1 lsl 22;
    dram_words = 1 lsl 21;
    seed = 42;
    quantum = 50.0;
    cache_sets = 256;
    cache_ways = 4;
    mode = Respct.Runtime.Full;
    registry_per_slot = 1 lsl 14;
    eadr = false;
    evict_rate = Simnvm.Memsys.default_config.Simnvm.Memsys.evict_rate;
    pcso = true;
    integrity = false;
    pipeline = false;
  }

type kind =
  | Transient_dram
  | Transient_nvm
  | Respct
  | Pmthreads
  | Montage
  | Clobber
  | Quadra (* Trinity for the map, Quadra for the queue *)
  | Soft (* map only *)
  | Dali (* map only *)
  | Friedman (* queue only *)

let name_of = function
  | Transient_dram -> "Transient<DRAM>"
  | Transient_nvm -> "Transient<NVMM>"
  | Respct -> "ResPCT"
  | Pmthreads -> "PMThreads"
  | Montage -> "Montage"
  | Clobber -> "Clobber-NVM"
  | Quadra -> "Quadra/Trinity"
  | Soft -> "SOFT"
  | Dali -> "Dali"
  | Friedman -> "FriedmanQueue"

let map_kinds =
  [ Transient_dram; Transient_nvm; Respct; Pmthreads; Montage; Clobber;
    Quadra; Soft; Dali ]

let queue_kinds =
  [ Transient_dram; Transient_nvm; Respct; Pmthreads; Montage; Clobber;
    Quadra; Friedman ]

(* Fresh world per data point: every system measures against its own
   memory image and scheduler. *)
let world (p : params) ~kind =
  let latency =
    let base =
      match kind with
      | Transient_dram -> Simnvm.Latency.dram_only
      | _ -> Simnvm.Latency.default
    in
    if p.eadr then Simnvm.Latency.eadr_of base else base
  in
  let mem =
    Simnvm.Memsys.create
      {
        Simnvm.Memsys.default_config with
        Simnvm.Memsys.nvm_words = p.nvm_words;
        dram_words = p.dram_words;
        sets = p.cache_sets;
        ways = p.cache_ways;
        latency;
        seed = p.seed;
        eadr = p.eadr;
        evict_rate = p.evict_rate;
        pcso = p.pcso;
      }
  in
  let sched = Simsched.Scheduler.create ~seed:p.seed ~quantum:p.quantum () in
  let env = Simsched.Env.make mem sched in
  (mem, sched, env)

let rt_cfg (p : params) =
  {
    Respct.Runtime.period_ns = p.period_ns;
    flusher_pool = p.flusher_pool;
    mode = p.mode;
    max_threads = p.max_threads;
    registry_per_slot = p.registry_per_slot;
    integrity = p.integrity;
    pipeline = p.pipeline;
  }

(* Arena for the transient structures: the NVMM region (Transient<NVMM>)
   or the DRAM region (Transient<DRAM>). *)
let transient_mem env ~kind =
  let b = Simsched.Env.backend env in
  Pds.Mem_iface.of_env_bump env
    (match kind with
    | Transient_dram -> Pds.Bump.dram env
    | _ ->
        Pds.Bump.create env ~base:b.Simnvm.Backend.line_words
          ~limit:b.Simnvm.Backend.nvm_words)

let respct_system rt =
  {
    Pds.Ops.sys_register = (fun ~slot -> Respct.Runtime.register rt ~slot);
    sys_deregister = (fun ~slot -> Respct.Runtime.deregister rt ~slot);
    sys_allow = (fun ~slot -> Respct.Runtime.checkpoint_allow rt ~slot);
    sys_prevent =
      (fun ~slot -> Respct.Runtime.checkpoint_prevent_nolock rt ~slot);
    sys_stop = (fun () -> Respct.Runtime.stop rt);
  }

(* Returns (runtime option, build) over the world [env], whatever its
   backend — the runtime is exposed so experiments can read checkpoint
   statistics afterwards. *)
let map_on env (p : params) kind =
  match kind with
  | Transient_dram | Transient_nvm ->
      let build () =
        let m = Pds.Hashmap_transient.create env (transient_mem env ~kind) ~buckets:p.buckets in
        (Pds.Hashmap_transient.ops m, Pds.Ops.null_system)
      in
      (None, build)
  | Respct ->
      let rt = Respct.Runtime.create ~cfg:(rt_cfg p) env in
      Respct.Runtime.start rt;
      let build () =
        let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:p.buckets in
        (Pds.Hashmap_respct.ops m, respct_system rt)
      in
      (Some rt, build)
  | Pmthreads ->
      let build () =
        Baselines.Pmthreads.make_map env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
          ~buckets:p.buckets
      in
      (None, build)
  | Montage ->
      let build () =
        Baselines.Montage.make_map env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
          ~buckets:p.buckets
      in
      (None, build)
  | Clobber ->
      let build () =
        Baselines.Durlin.make_map env ~policy:Baselines.Fatomic.Clobber
          ~max_threads:p.max_threads ~buckets:p.buckets
      in
      (None, build)
  | Quadra ->
      let build () =
        Baselines.Durlin.make_map env ~policy:Baselines.Fatomic.Quadra
          ~max_threads:p.max_threads ~buckets:p.buckets
      in
      (None, build)
  | Soft ->
      let build () = Baselines.Soft.make_map env ~buckets:p.buckets in
      (None, build)
  | Dali ->
      let build () =
        Baselines.Dali.make_map env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
          ~buckets:p.buckets
      in
      (None, build)
  | Friedman -> invalid_arg "Systems.map_on: FriedmanQueue is a queue"

let queue_on env (p : params) kind =
  match kind with
  | Transient_dram | Transient_nvm ->
      let build () =
        let q = Pds.Queue_transient.create env (transient_mem env ~kind) in
        (Pds.Queue_transient.ops q, Pds.Ops.null_system)
      in
      (None, build)
  | Respct ->
      let rt = Respct.Runtime.create ~cfg:(rt_cfg p) env in
      Respct.Runtime.start rt;
      let build () =
        let q = Pds.Queue_respct.create rt ~slot:0 in
        (Pds.Queue_respct.ops q, respct_system rt)
      in
      (Some rt, build)
  | Pmthreads ->
      let build () =
        Baselines.Pmthreads.make_queue env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
      in
      (None, build)
  | Montage ->
      let build () =
        Baselines.Montage.make_queue env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
      in
      (None, build)
  | Clobber ->
      let build () =
        Baselines.Durlin.make_queue env ~policy:Baselines.Fatomic.Clobber
          ~max_threads:p.max_threads
      in
      (None, build)
  | Quadra ->
      let build () =
        Baselines.Durlin.make_queue env ~policy:Baselines.Fatomic.Quadra
          ~max_threads:p.max_threads
      in
      (None, build)
  | Friedman ->
      let build () = Baselines.Friedman_queue.make_queue env in
      (None, build)
  | Soft | Dali -> invalid_arg "Systems.queue_on: map-only system"

(* A fresh simulated world per data point with the system built over it:
   (mem, sched, runtime option, build). *)
let map_system p kind =
  let mem, sched, env = world p ~kind in
  let rt, build = map_on env p kind in
  (mem, sched, rt, build)

let queue_system p kind =
  let mem, sched, env = world p ~kind in
  let rt, build = queue_on env p kind in
  (mem, sched, rt, build)
