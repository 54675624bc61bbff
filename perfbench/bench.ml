(* The repository benchmark. Runs one workload in this process, on one
   OCaml domain, for a given host-time budget, checks its outputs, and
   prints every metric by name with its unit; the last line of standard
   output is the result as one JSON object. See NOTES.md.

     bench --workload map-write-64t --seed 1 --seconds 10 --trace 0

   --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
   untraced and then traced, reports the per-layer metrics, the layer
   microbenchmarks and the tracing overhead. The exit code is 1 when an
   output check fails. *)

(* ---- metric catalogue: names and units, as in BENCHMARK.json ---- *)

let end_to_end =
  [
    ("host_kops", "kunit/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MiB");
    ("sim_mops", "Mops/vs");
    ("sim_stall_us_per_ckpt", "vus");
    ("served_share", "ratio");
  ]

let per_layer =
  [
    ("sim_p50_latency_us", "vus");
    ("sim_p99_latency_us", "vus");
    ("sim_latency_samples", "count");
    ("simnvm.accesses_per_op", "count");
    ("simnvm.nvm_misses_per_op", "count");
    ("simnvm.nvm_writebacks_per_op", "count");
    ("simnvm.pwbs_per_op", "count");
    ("simnvm.hit_rate", "ratio");
    ("simnvm.clean_pwb_share", "ratio");
    ("simnvm.self_ns_per_call", "ns");
    ("simnvm.micro.load_store_ns", "ns");
    ("simnvm.micro.pwb_ns", "ns");
    ("simnvm.micro.psync_ns", "ns");
    ("simsched.fibers", "count");
    ("simsched.lock_acquires_per_op", "count");
    ("simsched.restart_points_per_op", "count");
    ("simsched.above_memsys_ns_per_access", "ns");
    ("simsched.micro.env_ns_per_access.t1", "ns");
    ("simsched.micro.env_ns_per_access.t4", "ns");
    ("simsched.micro.env_ns_per_access.t16", "ns");
    ("simsched.micro.env_ns_per_access.t64", "ns");
    ("respct.checkpoints", "count");
    ("respct.flushed_addrs_per_ckpt", "count");
    ("respct.sim_flush_us_per_ckpt", "vus");
    ("respct.sim_overlap_us_per_ckpt", "vus");
    ("respct.micro.update_ns.logged", "ns");
    ("respct.micro.update_ns.unlogged", "ns");
    ("respct.micro.checkpoint_ns_per_line.classic", "ns");
    ("respct.micro.checkpoint_ns_per_line.pipelined", "ns");
    ("respct.micro.recovery_ns_per_entry", "ns");
    ("pds.insert_fresh_share", "ratio");
    ("pds.remove_hit_share", "ratio");
    ("pds.search_hit_share", "ratio");
    ("pds.micro.op_ns", "ns");
    ("service.host_us_per_request", "us");
    ("service.batches_per_request", "count");
    ("service.coalesced_share", "ratio");
    ("service.retries_per_request", "count");
    ("service.rejected_share", "ratio");
    ("service.max_queue_depth", "count");
    ("service.sim_stall_overlap_ns", "vns");
    ("crashtest.boundaries", "count");
    ("crashtest.images", "count");
    ("crashtest.truncated", "count");
    ("crashtest.failures", "count");
    ("crashtest.make_us_per_world", "us");
    ("crashtest.run_us_per_world", "us");
    ("crashtest.recover_check_us_per_image", "us");
    ("crashtest.explorer_self_share", "ratio");
    ("harness.world_build_host_s", "s");
    ("harness.prefill_host_s", "s");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("gc.pause_share", "ratio");
    ("bench.trace_overhead_share", "ratio");
    ("bench.failed_share", "ratio");
  ]

(* ---- workloads ---- *)

(* Name, nominal host seconds of one repetition on a 2-core x86-64 VM, and
   the workload. The repetition count of a run is fixed from --seconds and
   the nominal time, so a run does the same work on a fast or slow host. *)
let workloads =
  [
    ("map-write-64t", 2.5, fun ~tr ~seed -> Wl_map.run ~tr ~seed);
    ("service-read-zipf", 2.3, fun ~tr ~seed -> Wl_service.run ~tr ~seed);
    ("crash-explore", 6.5, fun ~tr ~seed -> Wl_explore.run ~tr ~seed ());
    (* planted-defect self-test, not a benchmark workload: it must fail *)
    ( "crash-explore-mutant",
      1.0,
      fun ~tr ~seed ->
        Wl_explore.run ~mutant:Respct.Runtime.No_overlap_wait ~tr ~seed () );
  ]

(* ---- repetitions ---- *)

let min_reps = 3

(* Repetitions for [seconds] of host time at [nominal] seconds each. *)
let reps_for ~seconds ~nominal =
  max min_reps (int_of_float (Float.round (seconds /. nominal)))

(* What one repetition sends back from its process. *)
type child = {
  rep : Rep.t;
  heap_mb : float;  (** the child's OCaml heap high-water mark *)
  spans : (string * Tracer.agg) list;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Run [f] in a forked child process and return its result. Every
   repetition starts from a fresh process: state the libraries keep across
   worlds (heap growth, global tables) cannot carry over from one
   repetition to the next and make later ones slower. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc r [];
      close_out oc;
      exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "repetition process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r

(* Host-speed calibrations of the run: [Calib.run] in its own process
   before every repetition and once after the last, so its allocations
   reach no repetition's heap. *)
let calibrations = ref []

let calibrate () =
  match in_child Calib.run with
  | Ok c -> calibrations := c :: !calibrations
  | Error _ -> ()

(* Host ms of the calibration, each of its pieces taken at its fastest copy
   in the run. *)
let calib_ms () =
  List.init Calib.pieces (fun i ->
      List.fold_left (fun m c -> min m c.(i)) max_int !calibrations)
  |> List.fold_left ( + ) 0
  |> fun ns -> float_of_int ns /. 1e6

let one_rep ~traced run ~seed () =
  calibrate ();
  in_child (fun () ->
      let tr = Tracer.create ~on:traced in
      let rep = Tracer.with_span tr "rep" (fun () -> run ~tr ~seed) in
      { rep; heap_mb = peak_heap_mb (); spans = Tracer.summary tr })

let kops (r : Rep.t) = float_of_int r.Rep.units /. r.Rep.window_s /. 1e3

(* Host throughput of a run, in k units per host second. Repetitions of a
   seed do the same work piece by piece ([Rep.segments]), so the window is
   rebuilt from each piece's fastest repetition. On a shared host
   interference only ever slows a piece down, and it falls on different
   pieces in different repetitions; the fastest copy of each piece follows
   the undisturbed speed, and still moves with any change that slows every
   repetition of that piece. Repetitions cut into different pieces (which
   the determinism check reports) fall back to the fastest whole window. *)
let run_kops reps =
  let first = List.hd reps in
  let n = Array.length first.Rep.segments in
  let pieces =
    if List.for_all (fun r -> Array.length r.Rep.segments = n) reps then
      List.init n (fun i ->
          List.fold_left (fun m r -> min m r.Rep.segments.(i)) max_int reps)
    else
      [
        List.fold_left
          (fun m r -> min m (int_of_float (r.Rep.window_s *. 1e9)))
          max_int reps;
      ]
  in
  let window_ns = max 1 (List.fold_left ( + ) 0 pieces) in
  float_of_int first.Rep.units /. (float_of_int window_ns *. 1e-9) /. 1e3

(* Set-up time of a run: its fastest repetition's, for the same reason. *)
let run_setup_s reps =
  List.fold_left (fun m r -> Float.min m r.Rep.setup_s) infinity reps

(* Host time is reported at the speed of a reference host, on which the
   calibration takes [Calib.reference_ms]: the host's slow phases last
   longer than a run and slow the calibration and the workload alike. *)
let host_speed () = Calib.reference_ms /. calib_ms ()

(* Every repetition of one seed must give the first one's virtual results
   and counts exactly. *)
let determinism ~what (first : Rep.t) reps =
  List.concat_map
    (fun (r : Rep.t) ->
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k (r.Rep.sim @ r.Rep.fingerprint) with
          | Some v' when Float.equal v v' -> None
          | Some v' ->
              Some
                (Printf.sprintf "%s: %s = %.17g, first run %.17g" what k v' v)
          | None -> Some (Printf.sprintf "%s: %s missing" what k))
        (first.Rep.sim @ first.Rep.fingerprint))
    reps

(* ---- output ---- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let print_table metrics unavailable =
  List.iter
    (fun (name, unit, v) ->
      if List.mem name unavailable then
        Printf.printf "  %-48s %14s %s\n" name "n/a" unit
      else Printf.printf "  %-48s %14.6g %s\n" name v unit)
    metrics

let usage () =
  prerr_endline
    ("usage: bench --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: "
    ^ String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun _ -> usage ())
    "bench";
  let nominal, run =
    match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
    | Some (_, nominal, f) -> (nominal, f)
    | None -> usage ()
  in
  let seed = !seed in
  let traced = !trace = 1 in
  Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" !workload seed
    !seconds !trace;
  let reps = reps_for ~seconds:!seconds ~nominal in
  let violations = ref [] in
  let ok = function
    | Ok c -> Some c
    | Error e ->
        violations := !violations @ [ "repetition raised: " ^ e ];
        None
  in
  (* the traced run alternates untraced and traced repetitions, so host
     drift during the run falls on both alike *)
  let base, traced_children =
    if traced then
      let pairs =
        List.init (max 2 (reps / 2)) (fun _ ->
            let u = one_rep ~traced:false run ~seed () in
            (u, one_rep ~traced:true run ~seed ()))
      in
      ( List.filter_map (fun (u, _) -> ok u) pairs,
        List.filter_map (fun (_, t) -> ok t) pairs )
    else
      ( List.filter_map ok
          (List.init reps (fun _ -> one_rep ~traced:false run ~seed ())),
        [] )
  in
  calibrate ();
  if base = [] then begin
    List.iter (fun v -> Printf.printf "CHECK FAILED: %s\n" v) !violations;
    exit 1
  end;
  let reps_of = List.map (fun c -> c.rep) in
  let first = (List.hd base).rep in
  violations :=
    !violations
    @ List.concat_map (fun c -> c.rep.Rep.violations) base
    @ determinism ~what:"repeat" first (List.tl (reps_of base));
  let attempted = List.fold_left (fun a c -> a + c.rep.Rep.attempted) 0 base in
  let failed = List.fold_left (fun a c -> a + c.rep.Rep.failed) 0 base in
  let served_share =
    float_of_int (first.Rep.attempted - first.Rep.failed)
    /. float_of_int (max 1 first.Rep.attempted)
  in
  let metrics, unavailable =
    if not traced then begin
      let e2e =
        [
          ("host_kops", run_kops (reps_of base) /. host_speed ());
          ("setup_s", run_setup_s (reps_of base) *. host_speed ());
          ("peak_heap_mb", Quant.median (List.map (fun c -> c.heap_mb) base));
          ("served_share", served_share);
        ]
        @ first.Rep.sim
      in
      let missing =
        List.filter (fun (n, _) -> not (List.mem_assoc n e2e)) end_to_end
      in
      if missing <> [] && !violations = [] then
        violations :=
          !violations
          @ [ "no value for " ^ String.concat ", " (List.map fst missing) ];
      ( List.map
          (fun (n, u) ->
            (n, u, Option.value ~default:nan (List.assoc_opt n e2e)))
          end_to_end,
        [] )
    end
    else begin
      let traced_reps = reps_of traced_children in
      let micro, micro_spans =
        match
          ok
            (in_child (fun () ->
                 let tr = Tracer.create ~on:true in
                 let m = Tracer.with_span tr "micro" (fun () -> Micro.run tr) in
                 (m, Tracer.summary tr)))
        with
        | Some r -> r
        | None -> ([], [])
      in
      violations :=
        !violations
        @ List.concat_map (fun r -> r.Rep.violations) traced_reps
        @ determinism ~what:"traced vs untraced" first traced_reps;
      let layer_value name =
        match
          List.filter_map
            (fun r -> List.assoc_opt name (r.Rep.layer @ r.Rep.sim))
            traced_reps
        with
        | [] -> None
        | vs -> Some (Quant.median vs)
      in
      let overhead = run_kops (reps_of base) /. run_kops traced_reps -. 1.0 in
      let extra =
        [
          ("bench.trace_overhead_share", overhead);
          ("bench.failed_share", 1.0 -. served_share);
        ]
        @ micro
      in
      let values =
        List.map
          (fun (n, u) ->
            match List.assoc_opt n extra with
            | Some v -> (n, u, Some v)
            | None -> (n, u, layer_value n))
          per_layer
      in
      Printf.printf "spans over %d traced repetitions (host ms: total, self):\n"
        (List.length traced_children);
      List.iter
        (fun (name, a) ->
          Printf.printf "  %-40s %6d x %10.3f %10.3f\n" name a.Tracer.count
            (float_of_int a.Tracer.total_ns /. 1e6)
            (float_of_int a.Tracer.self_ns /. 1e6))
        (Tracer.merge
           (List.map (fun c -> c.spans) traced_children @ [ micro_spans ]));
      ( List.map (fun (n, u, v) -> (n, u, Option.value ~default:0.0 v)) values,
        List.filter_map
          (fun (n, _, v) -> if v = None then Some n else None)
          values )
    end
  in
  Printf.printf
    "host: calibration %.4g ms (reference %.4g ms); as measured: host_kops \
     %.6g, setup_s %.6g\n"
    (calib_ms ()) Calib.reference_ms
    (run_kops (reps_of base))
    (run_setup_s (reps_of base));
  Printf.printf "untraced repetitions (host kunit/s, setup s):%s\n"
    (String.concat ""
       (List.map
          (fun c -> Printf.sprintf " %.4g/%.4g" (kops c.rep) c.rep.Rep.setup_s)
          base));
  Printf.printf "failed_share %.6g (%d failed of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  print_table metrics unavailable;
  if unavailable <> [] then
    Printf.printf "not measured on this workload (reported as 0): %s\n"
      (String.concat ", " unavailable);
  (* repetitions of one seed fail their checks alike; print each once *)
  List.iter
    (fun v -> Printf.printf "CHECK FAILED: %s\n" v)
    (List.fold_left
       (fun seen v -> if List.mem v seen then seen else seen @ [ v ])
       [] !violations);
  let correct = !violations = [] in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
