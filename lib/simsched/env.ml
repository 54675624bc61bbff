(* Execution environment binding a memory backend to a scheduler.

   All simulated programs access memory exclusively through these wrappers:
   latencies flow into the running thread's virtual clock (the charge hook is
   installed by [make]) and every access is a preemption point, so the
   scheduler can interleave threads as real hardware would.

   The memory side is always a Simnvm.Backend record: the simulator
   (Backend.of_memsys) and the mmap'd-file Filemem go through the same
   closures, so every baseline, app and harness runs over either. An access
   costs one closure call into a direct Memsys call, which measures within
   noise of calling Memsys directly.

   Every wrapper — including the atomic RMWs and pure-compute charges —
   publishes on the world's trace bus (Scheduler.trace_bus), so analyses
   that consume traces (race checker, RP advisor) see the complete access
   stream. Emission is guarded on [Trace.active]: an untraced world pays
   one count test per access. *)

type t = {
  be : Simnvm.Backend.t;
  lw : int; (* cached line_words: the hot paths and RMW tokens need it *)
  sched : Scheduler.t;
  bus : Trace.bus;
  rmw_tokens : (int, Mutex.t) Hashtbl.t;
      (* per-line exclusive-ownership tokens: conflicting RMWs on one line
         serialise on real hardware (the line passes core to core), which a
         pure time charge cannot express *)
}

let make_backend be sched =
  be.Simnvm.Backend.set_charge (fun ns -> Scheduler.charge sched ns);
  be.Simnvm.Backend.set_tid_provider (fun () ->
      Scheduler.current_tid_opt sched);
  {
    be;
    lw = be.Simnvm.Backend.line_words;
    sched;
    bus = Scheduler.trace_bus sched;
    rmw_tokens = Hashtbl.create 64;
  }

let make mem sched = make_backend (Simnvm.Backend.of_memsys mem) sched
let backend t = t.be
let sched t = t.sched
let bus t = t.bus

let load t addr =
  let v = t.be.Simnvm.Backend.load addr in
  if Trace.active t.bus then
    Trace.emit t.bus
      (Trace.Load { tid = Scheduler.current_tid_opt t.sched; addr });
  Scheduler.poll t.sched;
  v

let store t addr v =
  t.be.Simnvm.Backend.store addr v;
  if Trace.active t.bus then
    Trace.emit t.bus
      (Trace.Store { tid = Scheduler.current_tid_opt t.sched; addr });
  Scheduler.poll t.sched

let pwb t addr =
  t.be.Simnvm.Backend.pwb addr;
  if Trace.active t.bus then
    Trace.emit t.bus
      (Trace.Pwb { tid = Scheduler.current_tid_opt t.sched; addr });
  Scheduler.poll t.sched

let psync t =
  t.be.Simnvm.Backend.psync ();
  if Trace.active t.bus then
    Trace.emit t.bus (Trace.Psync { tid = Scheduler.current_tid_opt t.sched });
  Scheduler.poll t.sched

(* Conflicting atomic RMWs on one cache line serialise: the line is a token
   passed exclusively between cores, which a pure time charge cannot
   express. [serialize_rmw] holds the line's token across [f] (a hidden
   mutex whose hand-off gives exact virtual-time serialisation, including a
   line-transfer cost on contention). Lock-free algorithms additionally
   wrap their linearisation + flush sequences in it -- the real dependent
   chain that successive operations wait on. Reentrancy is not supported:
   nest [cas]/[faa] on a different line only. *)
let serialize_rmw t addr f =
  let line = Simnvm.Addr.line_of ~line_words:t.lw addr in
  let token =
    match Hashtbl.find_opt t.rmw_tokens line with
    | Some m -> m
    | None ->
        let m = Mutex.create ~name:"rmw-token" () in
        Hashtbl.add t.rmw_tokens line m;
        m
  in
  Mutex.with_lock t.sched token (fun () ->
      let result = f () in
      Scheduler.charge t.sched 8.0;
      result)

(* The traced view of an atomic RMW: the load (and, on success, the store)
   appear as ordinary access events so the WAR rule and the race checker
   account for them, and an Rmw marker records their atomicity. Before this
   went through the bus, cas/faa bypassed tracing entirely and RMW-heavy
   structures were silently invisible to the analyses. *)
let emit_rmw t ~addr ~wrote =
  if Trace.active t.bus then begin
    let tid = Scheduler.current_tid_opt t.sched in
    Trace.emit t.bus (Trace.Load { tid; addr });
    if wrote then Trace.emit t.bus (Trace.Store { tid; addr });
    Trace.emit t.bus (Trace.Rmw { tid; addr })
  end

(* Atomic compare-and-swap: no preemption point separates the read from the
   write, so it is atomic in the simulation exactly as the hardware
   instruction is. Charged as a store plus an RMW penalty; algorithms whose
   RMWs contend on one line must additionally wrap their dependent
   sequences in [serialize_rmw]. *)
let cas t addr ~expected ~desired =
  let v = t.be.Simnvm.Backend.load addr in
  let ok = v = expected in
  if ok then t.be.Simnvm.Backend.store addr desired;
  emit_rmw t ~addr ~wrote:ok;
  Scheduler.charge t.sched 8.0;
  Scheduler.poll t.sched;
  ok

(* Atomic fetch-and-add, same atomicity argument as [cas]. *)
let faa t addr delta =
  let v = t.be.Simnvm.Backend.load addr in
  t.be.Simnvm.Backend.store addr (v + delta);
  emit_rmw t ~addr ~wrote:true;
  Scheduler.charge t.sched 8.0;
  Scheduler.poll t.sched;
  v

(* Pure computation cost (the non-memory work of an application kernel). *)
let compute t ns =
  Scheduler.charge t.sched ns;
  if Trace.active t.bus then
    Trace.emit t.bus
      (Trace.Compute { tid = Scheduler.current_tid_opt t.sched; ns });
  Scheduler.poll t.sched

let line_words t = t.lw
