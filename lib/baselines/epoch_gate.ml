(* Generic epoch/quiescence service for the checkpointing baselines
   (PMThreads, Montage, Dali): worker threads call [pause_point] between
   operations; the periodic coordinator raises the gate, waits for every
   registered worker to pause, runs the epoch body (copying shadow pages,
   flushing payload buffers, ...) and releases everyone.

   Unlike ResPCT's restart points, the pause points carry no persistent
   state of their own -- these systems define their recovery state by
   critical-section/operation boundaries (paper section 2.2). *)

type t = {
  sched : Simsched.Scheduler.t;
  m : Simsched.Mutex.t;
  arrival : Simsched.Condvar.t;
  released : Simsched.Condvar.t;
  mutable gate_up : bool;
  mutable stop_requested : bool;
  active : bool array;
  paused : bool array;
  mutable epochs : int;
}

let create sched ~max_threads =
  {
    sched;
    m = Simsched.Mutex.create ~name:"epoch-gate" ();
    arrival = Simsched.Condvar.create ~name:"gate-arrival" ();
    released = Simsched.Condvar.create ~name:"gate-release" ();
    gate_up = false;
    stop_requested = false;
    active = Array.make max_threads false;
    paused = Array.make max_threads false;
    epochs = 0;
  }

let register t ~slot =
  Simsched.Mutex.with_lock t.sched t.m (fun () -> t.active.(slot) <- true)

let deregister t ~slot =
  Simsched.Mutex.with_lock t.sched t.m (fun () ->
      t.active.(slot) <- false;
      t.paused.(slot) <- false;
      Simsched.Condvar.signal t.sched t.arrival)

let flag_check_ns = 2.0

let pause_point t ~slot =
  Simsched.Scheduler.charge t.sched flag_check_ns;
  if t.gate_up then begin
    Simsched.Mutex.lock t.sched t.m;
    if t.gate_up then begin
      t.paused.(slot) <- true;
      Simsched.Condvar.signal t.sched t.arrival;
      while t.gate_up do
        Simsched.Condvar.wait t.sched t.released t.m
      done;
      t.paused.(slot) <- false
    end;
    Simsched.Mutex.unlock t.sched t.m
  end

(* Blocking-call protocol (mirrors ResPCT's checkpoint_allow/prevent): a
   thread about to block marks itself paused so epochs can proceed without
   it; on return it waits out any ongoing epoch before resuming. *)
let allow t ~slot =
  Simsched.Mutex.with_lock t.sched t.m (fun () ->
      t.paused.(slot) <- true;
      Simsched.Condvar.signal t.sched t.arrival)

let prevent t ~slot =
  Simsched.Mutex.lock t.sched t.m;
  while t.gate_up do
    Simsched.Condvar.wait t.sched t.released t.m
  done;
  t.paused.(slot) <- false;
  Simsched.Mutex.unlock t.sched t.m

let all_paused t =
  let ok = ref true in
  Array.iteri (fun i a -> if a && not t.paused.(i) then ok := false) t.active;
  !ok

(* Run one epoch boundary: quiesce, run [body], release. *)
let run_epoch t body =
  Simsched.Mutex.lock t.sched t.m;
  t.gate_up <- true;
  while not (all_paused t) do
    Simsched.Condvar.wait t.sched t.arrival t.m
  done;
  body ();
  t.epochs <- t.epochs + 1;
  t.gate_up <- false;
  Simsched.Condvar.broadcast t.sched t.released;
  Simsched.Mutex.unlock t.sched t.m

let start t ~period_ns body =
  ignore
    (Simsched.Scheduler.spawn ~name:"epoch-coordinator" t.sched (fun () ->
         let rec loop deadline =
           Simsched.Scheduler.sleep_until t.sched deadline;
           if not t.stop_requested then begin
             run_epoch t body;
             loop
               (Float.max
                  (deadline +. period_ns)
                  (Simsched.Scheduler.now t.sched))
           end
         in
         loop (Simsched.Scheduler.now t.sched +. period_ns)))

let stop t = t.stop_requested <- true
let epochs t = t.epochs

let system t =
  {
    Pds.Ops.sys_register = (fun ~slot -> register t ~slot);
    sys_deregister = (fun ~slot -> deregister t ~slot);
    sys_allow = (fun ~slot -> allow t ~slot);
    sys_prevent = (fun ~slot -> prevent t ~slot);
    sys_stop = (fun () -> stop t);
  }
