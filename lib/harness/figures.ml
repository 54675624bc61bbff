(* Every table and figure of the paper's evaluation (section 5), by name,
   as run by the [figures] subcommand. Each figure computes its points
   once and renders them twice: as tables in the shape of the paper's
   figures (rows are systems or configurations, columns the swept
   parameter; throughput is virtual-time Mops/s, see DESIGN.md on
   scaling) and, for the point-based Figures 8-12, as one experiment of
   the respct-sim/results/v1 document (per-point throughput, memory-event
   counters, metric registry and span breakdown). *)

type table = {
  title : string;
  header : string list;
  rows : (string * string list) list;
}

type output = { tables : table list; json : Obs.Json.t list }

let table title header rows = { title; header; rows }

let thread_header (s : Experiments.scale) =
  "threads:" :: List.map string_of_int s.Experiments.sweep_threads

let experiment (s : Experiments.scale) ?extra name points =
  Obs.Run.experiment name ?extra
    ~params:
      [
        ("scale", Obs.Json.String s.Experiments.label);
        ( "sweep_threads",
          Obs.Json.List
            (List.map (fun t -> Obs.Json.Int t) s.Experiments.sweep_threads) );
      ]
    points

(* The throughput series (one per named row, indexed by the thread sweep)
   summarise what the per-point objects carry in full. *)
let mops_series rows =
  [
    ( "throughput_series_mops",
      Obs.Json.Obj
        (List.map
           (fun (name, pts) ->
             ( name,
               Obs.Json.List
                 (List.map
                    (fun pt -> Obs.Json.Float (Experiments.point_mops pt))
                    pts) ))
           rows) );
  ]

let fig8 scale =
  let groups = Experiments.fig8_points ~scale () in
  let tables =
    List.map
      (fun (update_pct, rows) ->
        table
          (Printf.sprintf
             "Figure 8: HashMap throughput (Mops/s), %d%% updates / %d%% \
              searches"
             update_pct (100 - update_pct))
          (thread_header scale) rows)
      (Experiments.fig8_rows groups)
  in
  let series =
    List.concat_map
      (fun (update_pct, rows) ->
        List.map
          (fun (name, pts) -> (Printf.sprintf "%s/upd%d" name update_pct, pts))
          rows)
      groups
  in
  {
    tables;
    json =
      [
        experiment scale "fig8" ~extra:(mops_series series)
           (List.concat_map (fun (_, rows) -> List.concat_map snd rows)
              groups);
      ];
  }

let fig9 scale =
  let rows = Experiments.fig9_points ~scale () in
  {
    tables =
      [
        table "Figure 9: Queue throughput (Mops/s), 1:1 enq/deq"
          (thread_header scale) (Experiments.fig9_rows rows);
      ];
    json =
      [
        experiment scale "fig9" ~extra:(mops_series rows)
           (List.concat_map snd rows);
      ];
  }

let fig10 scale =
  let rows = Experiments.fig10_points ~scale () in
  {
    tables =
      [
        table
          (Printf.sprintf
             "Figure 10: overhead analysis at %d threads (throughput \
              normalised to Transient<DRAM>)"
             scale.Experiments.fig10_threads)
          [ "config:"; "Queue"; "HashMap-RI"; "HashMap-WI" ]
          (Experiments.fig10_rows rows);
      ];
    json =
      [
        experiment scale "fig10"
           (List.concat_map
              (fun (cname, cells) ->
                List.map
                  (fun (wname, pt) ->
                    {
                      pt with
                      Obs.Run.label = Printf.sprintf "%s/%s" cname wname;
                      params =
                        pt.Obs.Run.params
                        @ [
                            ("config", Obs.Json.String cname);
                            ("workload", Obs.Json.String wname);
                          ];
                    })
                  cells)
              rows);
      ];
  }

let fig11 scale =
  let ((base, sweep) as pts) = Experiments.fig11_points ~scale () in
  {
    tables =
      [
        table
          "Figure 11: checkpoint-period sweep (HashMap write-intensive; \
           normalised throughput and measured effective period)"
          [ "period"; "norm. throughput"; "effective period" ]
          (Experiments.fig11_rows pts);
      ];
    json =
      [
        experiment scale "fig11"
           ({ base with Obs.Run.label = "baseline/" ^ base.Obs.Run.label }
           :: List.map
                (fun (period_ns, pt) ->
                  {
                    pt with
                    Obs.Run.params =
                      pt.Obs.Run.params
                      @ [ ("period_ns", Obs.Json.Float period_ns) ];
                  })
                sweep);
      ];
  }

let fig12 scale =
  let pts = Experiments.fig12_points ~scale () in
  {
    tables =
      [
        table
          (Printf.sprintf
             "Figure 12: recovery time vs HashMap size (%d recovery threads)"
             scale.Experiments.recovery_threads)
          [ "buckets"; "recovery (ms)"; "registry entries"; "rolled back" ]
          (Experiments.fig12_rows pts);
      ];
    json = [ experiment scale "fig12" pts ];
  }

let app_scale (s : Experiments.scale) =
  if s.Experiments.label = "paper" then App_experiments.paper
  else App_experiments.small

let table_only title header rows =
  { tables = [ table title header rows ]; json = [] }

let fig13 scale =
  table_only
    "Figure 13: compute-intensive applications (execution time normalised \
     to Transient<DRAM>; last row = section 5.3's naive RP placement)"
    [ "config:"; "Dedup"; "Swaptions"; "MatMul"; "LR" ]
    (App_experiments.fig13 ~scale:(app_scale scale) ())

let fig14 scale =
  table_only "Figure 14: KV store under YCSB (Kops/s)"
    [ "config:"; "read-intensive"; "balanced"; "write-intensive" ]
    (App_experiments.fig14 ~scale:(app_scale scale) ())

let tab2 _scale =
  let show name trace =
    let cells =
      List.map
        (fun v ->
          Fmt.str "%a" Analysis.Idempotence.pp_classification
            (Analysis.Idempotence.classify trace v))
        [ "x"; "y" ]
    in
    ( name,
      cells
      @ [
          (if Analysis.Idempotence.idempotent trace then "idempotent"
           else "not idempotent");
        ] )
  in
  table_only "Table 2: RAW/WAR dependencies and idempotence (analysis demo)"
    [ "sequence"; "x"; "y"; "verdict" ]
    [
      show "x=5; y=x (RAW)" Analysis.Idempotence.table2_raw;
      show "y=x; x=8 (WAR)" Analysis.Idempotence.table2_war;
    ]

let tab3 _scale =
  let rows = Loc_report.rows () in
  table_only
    (if rows = [] then
       "Table 3: sources not found (run from the repository root to count \
        instrumentation lines)"
     else "Table 3: ResPCT instrumentation lines in the ported applications")
    [ "application"; "instrumented LoC"; "total LoC"; "%" ]
    rows

(* Not figures of the paper, but measured on the same worlds: the
   checksum tax of sealed metadata (DESIGN.md section 8) and the
   checkpoint pause that pipelining shrinks (section 12). *)
let integrity scale =
  let pts = Experiments.integrity_points ~scale () in
  let sel f = List.concat_map (fun (_, cells) -> List.map f cells) pts in
  {
    tables =
      [
        table "Integrity tax (ResPCT sealed/raw Mops, delta)"
          (thread_header scale)
          (Experiments.integrity_overhead_rows pts);
      ];
    json =
      [
        Obs.Run.experiment "integrity-off" (sel (fun (_, off, _) -> off));
        Obs.Run.experiment "integrity-on" (sel (fun (_, _, on) -> on));
      ];
  }

let pause scale =
  table_only
    (Printf.sprintf
       "Checkpoint pause: ResPCT HashMap at %d threads, 50%% updates \
        (per checkpoint)"
       (Experiments.pause_threads scale))
    [ "mode"; "stall (us)"; "overlap (us)"; "checkpoints" ]
    (Experiments.pause_rows (Experiments.pause_points ~scale ()))

(* In the paper's order; a selection runs in this order. *)
let all =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("tab2", tab2);
    ("tab3", tab3);
    ("integrity", integrity);
    ("pause", pause);
  ]
