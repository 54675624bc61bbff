(* GC pause time from the runtime_events ring of this process: the time
   spent inside outermost runtime phases, polled at window boundaries.
   Started only in the traced run. *)

let depth = ref 0
let began = ref 0L
let paused_ns = ref 0L

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts _ ->
      if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
      incr depth)
    ~runtime_end:(fun _ ts _ ->
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          paused_ns :=
            Int64.add !paused_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began)
      end)
    ()

let cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let poll () =
  ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

(* Pause time so far, in ns, after draining the ring. *)
let total_ns () =
  poll ();
  Int64.to_int !paused_ns
