(* service-read-zipf: Service.Front.run on the Sim backend. 4 shards x 2
   workers, 90% reads with zipf 0.99 key popularity, pipelined
   integrity-sealed checkpoints, and enough closed-loop sessions that the
   admission queues fill, so requests are rejected and retried.

   [Front.run] builds, prefills and serves inside one call, so the
   benchmark cannot see its phases. Set-up is measured by a probe: the
   same configuration with one session of one request (world
   construction, prefill and a single request). The window is the full
   run's host time minus the probe's. Both get the same NVMM size per
   shard; [Front] still sizes its hash table from sessions x requests, so
   the probe's table has half the full run's buckets (1024 against 2048
   per shard). *)

let config ~seed =
  {
    Service.Front.smoke with
    Service.Front.sessions = 4_000;
    requests = 50;
    keys = 200_000;
    prefill = 20_000;
    (* the queues stay full, so requests are rejected; enough retries with
       a long enough backoff that every one of them completes in the end *)
    retries = 64;
    retry_ns = 100_000.0;
    seed = (seed * 104_729) + 3;
    (* what [Front] sizes for the full run; fixed so the probe's worlds are
       as large *)
    nvm_words = 1 lsl 19;
  }

let run ~(tr : Tracer.t) ~seed : Rep.t =
  let traced = tr.Tracer.on in
  let cfg = config ~seed in
  let timed name f =
    Tracer.with_span tr name (fun () ->
        let t0 = Clock.now_ns () in
        let r = f () in
        (r, Clock.now_ns () - t0))
  in
  let _, probe_ns =
    timed "setup.probe" (fun () ->
        Service.Front.run
          { cfg with Service.Front.sessions = 1; requests = 1 })
  in
  let pause0 = if traced then Gcpause.total_ns () else 0 in
  let gc0 = Rep.gc_mark () in
  let r, full_ns = timed "window.front_run" (fun () -> Service.Front.run cfg) in
  let issued = cfg.Service.Front.sessions * cfg.Service.Front.requests in
  let gc_window = Rep.gc_layer ~units:issued gc0 in
  let pause_ns = if traced then Gcpause.total_ns () - pause0 else 0 in
  let window_ns = max 1 (full_ns - probe_ns) in
  let completed = r.Service.Front.r_completed in
  let failed = r.Service.Front.r_failed in
  let shards = r.Service.Front.r_shards in
  let sum f = List.fold_left (fun a s -> a + f s) 0 shards in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 shards in
  let ckpts = sum (fun s -> s.Service.Front.sr_checkpoints) in
  let served = sum (fun s -> s.Service.Front.sr_served) in
  let accepted = sum (fun s -> s.Service.Front.sr_accepted) in
  let rejected =
    sum (fun s -> s.Service.Front.sr_rejected_full + s.Service.Front.sr_rejected_down)
  in
  let h = Obs.Metrics.histogram r.Service.Front.r_metrics "latency_ns" in
  let p50 = Quant.histogram_bucket h 50.0 in
  let p99 = Quant.histogram_bucket h 99.0 in
  let samples = h.Obs.Metrics.n in
  let per_ckpt x = x /. float_of_int (max 1 ckpts) in
  let violations =
    if completed + failed <> issued then
      [
        Printf.sprintf "service: completed %d + failed %d <> %d issued"
          completed failed issued;
      ]
    else []
  in
  let sim =
    [
      ("sim_mops", r.Service.Front.r_mrps);
      ( "sim_stall_us_per_ckpt",
        per_ckpt (sumf (fun s -> s.Service.Front.sr_stall_ns)) /. 1e3 );
      ("sim_p50_latency_us", p50 /. 1e3);
      ("sim_p99_latency_us", p99 /. 1e3);
      ("sim_latency_samples", float_of_int samples);
    ]
  in
  let fingerprint =
    List.map
      (fun (k, v) -> (k, float_of_int v))
      [
        ("completed", completed);
        ("failed", failed);
        ("retried", r.Service.Front.r_retried);
        ("served", served);
        ("accepted", accepted);
        ("rejected", rejected);
        ("checkpoints", ckpts);
        ("latency_samples", samples);
      ]
    @ [
        ("makespan_ns", r.Service.Front.r_makespan_ns);
        ("stall_overlap_ns", r.Service.Front.r_stall_overlap_ns);
      ]
  in
  let per_req x = float_of_int x /. float_of_int issued in
  let layer =
    [
      ( "service.host_us_per_request",
        float_of_int window_ns /. 1e3 /. float_of_int issued );
      ( "service.batches_per_request",
        per_req (sum (fun s -> s.Service.Front.sr_batches)) );
      ( "service.coalesced_share",
        Rep.ratio (sum (fun s -> s.Service.Front.sr_coalesced)) served );
      ("service.retries_per_request", per_req r.Service.Front.r_retried);
      ("service.rejected_share", Rep.ratio rejected (accepted + rejected));
      ( "service.max_queue_depth",
        float_of_int
          (List.fold_left
             (fun a s -> max a s.Service.Front.sr_max_depth)
             0 shards) );
      ("service.sim_stall_overlap_ns", r.Service.Front.r_stall_overlap_ns);
      ("respct.checkpoints", float_of_int ckpts);
      ( "respct.sim_flush_us_per_ckpt",
        per_ckpt (sumf (fun s -> s.Service.Front.sr_flush_ns)) /. 1e3 );
    ]
    @ (if traced then
         [ ("gc.pause_share", float_of_int pause_ns /. float_of_int full_ns) ]
       else [])
    @ gc_window
  in
  {
    Rep.setup_s = float_of_int probe_ns *. 1e-9;
    window_s = float_of_int window_ns *. 1e-9;
    segments = [| window_ns |];
    units = completed;
    attempted = issued;
    failed;
    sim;
    fingerprint;
    layer;
    violations;
  }
