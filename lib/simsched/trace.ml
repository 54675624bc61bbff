(* Execution tracing as a per-world event bus.

   Each scheduler owns one bus. The environment publishes every memory
   access (plain loads/stores, RMWs, persistence instructions, compute
   charges), the synchronisation primitives publish lock operations, and
   the ResPCT runtime publishes restart-point markers — all on the same
   bus. Consumers (the WAR/idempotence analyser, the vector-clock race
   checker, the RP advisor, observability probes) attach as subscribers;
   nothing is process-global, so traced worlds compose and parallel worlds
   cannot observe each other.

   The disabled fast path is one count test: producers guard with
   [active] before even constructing an event. *)

type event =
  | Load of { tid : int; addr : int }
  | Store of { tid : int; addr : int }
  | Rmw of { tid : int; addr : int }
  | Pwb of { tid : int; addr : int }
  | Psync of { tid : int }
  | Compute of { tid : int; ns : float }
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Restart_point of { tid : int; id : int }

type subscription = int

(* The subscriber list is the shared Simnvm.Sink: attach/detach churn
   (Trace.record around every analysis window) allocates nothing. *)
type bus = event Simnvm.Sink.t

let create_bus () = Simnvm.Sink.create ~first_id:0
let[@inline] active b = Simnvm.Sink.active b
let emit = Simnvm.Sink.emit
let subscribe = Simnvm.Sink.subscribe
let unsubscribe = Simnvm.Sink.unsubscribe

(* ------------------------------------------------------------------ *)
(* Recorder: the accumulate-then-analyse subscriber used by the offline
   analyses (Rp_advisor, idempotence). *)

type recorder = {
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable sub : subscription option;
}

let attach b =
  let r = { events = []; count = 0; sub = None } in
  let id =
    subscribe b (fun ev ->
        r.events <- ev :: r.events;
        r.count <- r.count + 1)
  in
  r.sub <- Some id;
  r

let detach b r =
  match r.sub with
  | Some id ->
      unsubscribe b id;
      r.sub <- None
  | None -> ()

let events r = List.rev r.events
let count r = r.count

(* Run [f] with a fresh recorder attached, then detach it. *)
let record b f =
  let r = attach b in
  Fun.protect
    ~finally:(fun () -> detach b r)
    (fun () ->
      let v = f () in
      (v, events r))
