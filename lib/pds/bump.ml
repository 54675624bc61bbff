(* Volatile bump allocator with size-class free lists, modelling malloc for
   the transient programs. All bookkeeping is host-level and atomic between
   simulation yield points; only a flat time cost is charged. *)

let alloc_ns = 35.0

type t = {
  sched : Simsched.Scheduler.t;
  mutable cur : int;
  limit : int;
  free_lists : (int, int list ref) Hashtbl.t;
}

let create env ~base ~limit =
  {
    sched = Simsched.Env.sched env;
    cur = base;
    limit;
    free_lists = Hashtbl.create 8;
  }

let dram env =
  let b = Simsched.Env.backend env in
  let base = b.Simnvm.Backend.nvm_words in
  create env ~base ~limit:(base + b.Simnvm.Backend.dram_words)

let alloc t ~words =
  if words <= 0 then invalid_arg "Bump.alloc: words must be positive";
  Simsched.Scheduler.charge t.sched alloc_ns;
  match Hashtbl.find_opt t.free_lists words with
  | Some ({ contents = addr :: rest } as l) ->
      l := rest;
      addr
  | Some _ | None ->
      let addr = t.cur in
      if addr + words > t.limit then failwith "Bump.alloc: out of memory";
      t.cur <- addr + words;
      addr

let free t addr ~words =
  Simsched.Scheduler.charge t.sched (alloc_ns /. 2.0);
  match Hashtbl.find_opt t.free_lists words with
  | Some l -> l := addr :: !l
  | None -> Hashtbl.add t.free_lists words (ref [ addr ])

let used t ~base = t.cur - base
