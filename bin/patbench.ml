(* patbench — the benchmark CLI for the Patricia-trie repro.

   One in-process driver regenerates every figure of the paper's
   evaluation (Section V) and the CI regression gate's datapoints, and
   exposes each further experiment as a subcommand with proper flags:

     patbench figure                     # Figures 8-11 + scan, all of it
     patbench figure --id 8,9,10,11,scan --threads 1,2 --seconds 0.3 \
                     --trials 2 --baseline-json bench_current.json
     patbench extra  --which medium-contention
     patbench custom --insert 20 --delete 20 --find 60 --range 1000 \
                     --clustered 50
     patbench ablation --which replace|helping|width|seq|vlk|backoff
     patbench scan | analyze | serve | load | recover | promote | replicate

   Absolute numbers depend on the machine (the paper used a 128-thread
   UltraSPARC T2+); what must reproduce is the *shape*: who scales, who
   collapses under contention, and who wins on clustered keys.
*)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common options *)

let threads_arg =
  let doc = "Comma-separated list of thread counts to sweep." in
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "threads" ] ~doc)

let seconds_arg =
  let doc = "Seconds per timed trial." in
  Arg.(value & opt float 1.0 & info [ "seconds" ] ~doc)

let trials_arg =
  let doc = "Trials per data point (mean and stddev are reported)." in
  Arg.(value & opt int 3 & info [ "trials" ] ~doc)

let seed_arg =
  let doc = "Base random seed for workloads and prefill." in
  Arg.(value & opt int 2013 & info [ "seed" ] ~doc)

let csv_arg =
  let doc = "Also print data points as CSV rows (structure,threads,mean,stddev)." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let metrics_arg =
  let doc =
    "Write a machine-readable metrics file (JSON): per data point latency \
     percentiles, PAT's contention counters, GC deltas, and raw throughput \
     samples (see EXPERIMENTS.md, \"Metrics JSON\")."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~doc ~docv:"PATH")

let baseline_arg =
  let doc =
    "Write a compact throughput baseline (JSON): one {figure, structure, \
     threads, mean_ops_s, stddev_ops_s} record per data point, the input of \
     test/compare_bench.exe and of the committed BENCH_1.json (see \
     EXPERIMENTS.md, \"Throughput regression gate\").  Unlike --metrics-json \
     it does not instrument the run."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline-json" ] ~doc ~docv:"PATH")

let backoff_arg =
  let doc =
    "Enable bounded exponential backoff with jitter in the retry loops of \
     the structures under test (PAT and PAT-VLK).  Off by default so the \
     paper's figures are reproduced with the unmodified algorithm; see \
     EXPERIMENTS.md, \"Fault injection & progress\"."
  in
  Arg.(value & flag & info [ "backoff" ] ~doc)

let trace_out_arg =
  let doc =
    "Record every trie update attempt as a span in per-domain ring buffers \
     and write the merged timeline as Chrome trace-event JSON to $(docv) at \
     exit — open it in Perfetto (ui.perfetto.dev) or chrome://tracing, one \
     track per domain.  Ring overflow keeps the most recent attempts and is \
     reported, never silent."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"PATH")

let serve_arg =
  let doc =
    "Serve live metrics over HTTP on 127.0.0.1:$(docv) for the whole run: \
     GET /metrics returns Prometheus text (throughput counter, latency \
     quantiles, retry attribution, GC state), GET /healthz returns ok.  \
     Port 0 binds an ephemeral port (printed at startup).  Implies \
     latency recording and retry attribution."
  in
  Arg.(value & opt (some int) None & info [ "serve" ] ~doc ~docv:"PORT")

let attribution_arg =
  let doc =
    "Profile CAS-retry attribution: histogram every update retry by cause \
     (flag CAS lost, child CAS lost, flagged-ancestor help, backtrack, \
     structural conflict) and by the attempt depth at which it struck; \
     print the decomposition table at exit."
  in
  Arg.(value & flag & info [ "attribution" ] ~doc)

let set_backoff b = Chaos.Backoff.set_enabled b

(* Install the flight recorder around one subcommand invocation: the
   attempt-span trace ring (--trace-out), the retry-attribution profiler
   (--attribution, implied by --serve) and the live scrape endpoint
   (--serve).  Teardown always runs — the trace file and attribution
   table survive a failing sweep. *)
let with_flight_recorder ~trace_out ~serve ~attribution f =
  let tr =
    Option.map (fun _ -> Obs.Trace.create ~capacity:16384 ()) trace_out
  in
  Option.iter (fun t -> Obs.Trace.set_recorder (Some t)) tr;
  let profile = attribution || serve <> None in
  if profile then Obs.Attribution.set_enabled true;
  let server =
    Option.map
      (fun port ->
        Harness.Live.set_enabled true;
        let s = Obs.Serve.start ~port Harness.Live.prometheus in
        Format.printf "serving metrics on http://127.0.0.1:%d/metrics@."
          (Obs.Serve.port s);
        Format.print_flush ();
        s)
      serve
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Obs.Serve.stop server;
      Harness.Live.set_enabled false;
      Obs.Trace.set_recorder None;
      (match (tr, trace_out) with
      | Some t, Some path ->
          Obs.Perfetto.write ~path t;
          Format.printf
            "@.perfetto trace written to %s (%d events retained, %d dropped)@."
            path
            (List.length (Obs.Trace.dump t))
            (Obs.Trace.dropped t)
      | _ -> ());
      if profile then begin
        Format.printf "@.=== Retry attribution ===@.";
        Obs.Attribution.pp Format.std_formatter ();
        Obs.Attribution.set_enabled false
      end;
      Format.print_flush ())
    f

let config ~seconds ~trials ~seed threads =
  Harness.
    { threads; seconds; trials; warmup_seconds = min 0.3 (seconds /. 2.0); seed }

(* Result files are per-invocation state: [with_results] resets the
   accumulators, every measured data point appends to them, and each
   requested file is written once at the end.  A data point's id (its
   figure, e.g. "Figure 8 (top)") is the "figure" key in both files. *)
let collect_metrics = ref false
let metrics_acc : Obs.Json.t list ref = ref []
let collect_baseline = ref false
let baseline_acc : Obs.Json.t list ref = ref []

let write_results ~what ~threads_list ~seconds ~trials ~seed datapoints path =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("schema_version", Int 1);
        ("benchmark", Str "bin/patbench.exe");
        ( "config",
          Obj
            [
              ("seconds_per_trial", Float seconds);
              ("trials", Int trials);
              ("threads", Arr (List.map (fun t -> Int t) threads_list));
              ("seed", Int seed);
              ("available_cores", Int (Domain.recommended_domain_count ()));
              ("backoff", Bool (Chaos.Backoff.enabled ()));
              ("chaos_injection", Bool (Chaos.enabled ()));
            ] );
        ("datapoints", Arr (List.rev datapoints));
      ]
  in
  match to_file path doc with
  | () ->
      Format.printf "@.%s written to %s (%d datapoints)@." what path
        (List.length datapoints)
  | exception Sys_error m ->
      Format.eprintf "@.cannot write %s file: %s@." what m;
      exit 1

let with_results ~threads_list ~seconds ~trials ~seed ~metrics ?baseline f =
  collect_metrics := metrics <> None;
  metrics_acc := [];
  collect_baseline := baseline <> None;
  baseline_acc := [];
  let r = f () in
  let write what acc =
    write_results ~what ~threads_list ~seconds ~trials ~seed !acc
  in
  Option.iter (write "metrics" metrics_acc) metrics;
  Option.iter (write "baseline" baseline_acc) baseline;
  r

let record_baseline ~id ~structure ~threads (dp : Harness.datapoint) =
  if !collect_baseline then
    baseline_acc :=
      Obs.Json.Obj
        [
          ("figure", Obs.Json.Str id);
          ("structure", Obs.Json.Str structure);
          ("threads", Obs.Json.Int threads);
          ("mean_ops_s", Obs.Json.Float dp.Harness.mean);
          ("stddev_ops_s", Obs.Json.Float dp.Harness.stddev);
        ]
      :: !baseline_acc

(* Metrics files and the live endpoint both want latency recording and
   PAT's internal counters; a bare or baseline-only run stays
   uninstrumented. *)
let instrumented () = !collect_metrics || Harness.Live.enabled ()

(* One data point of [subject], appended to the result files. *)
let measure ~id ~seconds ~trials ~seed subject workload threads =
  let full =
    Harness.run_subject_full ~record_latency:(instrumented ()) subject
      workload
      (config ~seconds ~trials ~seed threads)
  in
  let label = subject.Harness.label in
  if !collect_metrics then
    metrics_acc :=
      Harness.datapoint_full_to_json ~section:id ~label workload ~threads full
      :: !metrics_acc;
  record_baseline ~id ~structure:label ~threads full.Harness.dp;
  full

(* One sweep: every subject at every thread count, printed as a table
   headed "[id]: [detail]".  Instrumented sweeps swap PAT for its
   counter-enabled twin and add its mean-descent row. *)
let run_sweep ~threads_list ~seconds ~trials ~seed ~csv ~id ?detail subjects
    workload =
  let title = match detail with None -> id | Some d -> id ^ ": " ^ d in
  Format.printf "@.=== %s ===@." title;
  let subjects =
    if instrumented () then
      List.map
        (fun s ->
          if s.Harness.label = Core.Patricia.name then Harness.pat_subject_stats
          else s)
        subjects
    else subjects
  in
  let rows =
    List.map
      (fun subject ->
        ( subject.Harness.label,
          List.map
            (measure ~id ~seconds ~trials ~seed subject workload)
            threads_list ))
      subjects
  in
  Harness.pp_series Format.std_formatter ~title ~threads_list
    (List.map
       (fun (label, fulls) ->
         (label, List.map (fun f -> f.Harness.dp) fulls))
       rows);
  List.iter
    (fun (label, fulls) ->
      let descents =
        List.map (fun f -> Harness.descent_mean f.Harness.counters) fulls
      in
      if List.exists Option.is_some descents then begin
        Format.printf "%-8s" label;
        List.iter
          (function
            | Some m -> Format.printf "%14.2f" m
            | None -> Format.printf "%14s" "-")
          descents;
        Format.printf "  (mean descent, nodes/search)@."
      end)
    rows;
  if csv then
    List.iter
      (fun (label, fulls) ->
        List.iter2
          (fun threads f ->
            Format.printf "csv,%s,%d,%.0f,%.0f@." label threads
              f.Harness.dp.Harness.mean f.Harness.dp.Harness.stddev)
          threads_list fulls)
      rows;
  Format.print_flush ()

(* ------------------------------------------------------------------ *)
(* Frozen views: what a snapshot, a scan and a scanner attached to the
   write path cost.  Shared by the scan subcommand and the figure
   driver's "scan" datapoints. *)

(* A PAT prefilled with [universe/2] random insertions. *)
let scan_prefilled ~universe seed =
  let t = Core.Patricia.create ~universe () in
  let rng = Rng.of_int_seed seed in
  for _ = 1 to universe / 2 do
    ignore (Core.Patricia.insert t (Rng.int rng universe) : bool)
  done;
  t

(* One writer operation: insert, delete or replace, a third each. *)
let scan_churn ~universe t rng =
  let k = Rng.int rng universe in
  match Rng.int rng 3 with
  | 0 -> ignore (Core.Patricia.insert t k : bool)
  | 1 -> ignore (Core.Patricia.delete t k : bool)
  | _ ->
      ignore
        (Core.Patricia.replace t ~remove:k ~add:(Rng.int rng universe) : bool)

(* One rate sample: run [step] (returning a unit count) on the main
   domain for ~[seconds] with [bg] churning writer domains (seeded
   [seed + 17 + i]) and, when [scanner], a domain folding whole frozen
   views in a loop.  All side domains are stopped and joined before the
   sample is returned, so trials don't bleed into each other. *)
let scan_rate ~universe ~seconds ~seed ~bg ~scanner t step =
  let stop = Atomic.make false in
  let doms =
    List.init bg (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.of_int_seed (seed + 17 + i) in
            while not (Atomic.get stop) do
              scan_churn ~universe t rng
            done))
    @
    if not scanner then []
    else
      [
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let v = Core.Patricia.snapshot t in
              ignore
                (Core.Patricia.View.fold v ~init:0 ~f:(fun n _ -> n + 1) : int)
            done);
      ]
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let count = ref 0.0 in
  while Unix.gettimeofday () < deadline do
    count := !count +. step ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  List.iter Domain.join doms;
  !count /. elapsed

(* Steps: 64 snapshots; one writer operation from its own stream. *)
let snapshot_step t () =
  for _ = 1 to 64 do
    ignore (Core.Patricia.snapshot t)
  done;
  64.0

let writer_step ~universe ~seed t =
  let rng = Rng.of_int_seed (seed + 5) in
  fun () ->
    scan_churn ~universe t rng;
    1.0

(* The figure driver's scan datapoints, one per thread count, each trial
   on a fresh half-full trie of 2^16 keys with threads-1 churning
   writers:
     "Scan (snapshot)"  snapshot() calls/s (the O(1) claim);
     "Scan (goodput)"   keys/s folded out of whole frozen views;
     "Scan (writer)"    the measured domain's write ops/s with a
                        continuous whole-view scanner attached (the
                        copy-on-descent cost on the write path). *)
let scan_figures ~threads_list ~seconds ~trials ~seed =
  let universe = 65_536 in
  let row label ~id ~prefill_seed ~scanner step =
    ( label,
      List.map
        (fun threads ->
          let dp =
            Harness.mean_stddev
              (List.init trials (fun _ ->
                   let t = scan_prefilled ~universe prefill_seed in
                   scan_rate ~universe ~seconds ~seed ~bg:(threads - 1)
                     ~scanner t (step t)))
          in
          record_baseline ~id ~structure:Core.Patricia.name ~threads dp;
          dp)
        threads_list )
  in
  let goodput_step t () =
    let v = Core.Patricia.snapshot t in
    float_of_int (Core.Patricia.View.fold v ~init:0 ~f:(fun n _ -> n + 1))
  in
  let title =
    Printf.sprintf
      "Scan: PAT, key range (0, %d); snapshot calls/s, goodput keys/s, \
       writer ops/s"
      universe
  in
  Format.printf "@.=== %s ===@." title;
  Harness.pp_series Format.std_formatter ~title ~threads_list
    [
      row "snapshot" ~id:"Scan (snapshot)" ~prefill_seed:seed ~scanner:false
        snapshot_step;
      row "goodput" ~id:"Scan (goodput)" ~prefill_seed:(seed + 1)
        ~scanner:false goodput_step;
      row "writer" ~id:"Scan (writer)" ~prefill_seed:(seed + 2) ~scanner:true
        (writer_step ~universe ~seed);
    ];
  Format.print_flush ()

(* ------------------------------------------------------------------ *)
(* figure subcommand *)

let figure_cmd =
  let id_arg =
    let doc =
      "Comma-separated figures to regenerate, drawn from 8, 9, 10, 11 and \
       scan (the frozen-view datapoints); all of them by default."
    in
    let ids =
      [ ("8", `F8); ("9", `F9); ("10", `F10); ("11", `F11); ("scan", `Scan) ]
    in
    Arg.(
      value
      & opt (list (enum ids)) (List.map snd ids)
      & info [ "id" ] ~doc ~docv:"IDS")
  in
  let range_arg =
    let doc =
      "Override the key range of figures 8-11 (defaults to the paper's: \
       10^6, and 10^2 for Figure 9)."
    in
    Arg.(value & opt (some int) None & info [ "range" ] ~doc)
  in
  let run ids range threads_list seconds trials seed csv metrics baseline
      backoff trace_out serve attribution =
    set_backoff backoff;
    let sweep = run_sweep ~threads_list ~seconds ~trials ~seed ~csv in
    let large = Option.value range ~default:1_000_000 in
    let small = Option.value range ~default:100 in
    with_flight_recorder ~trace_out ~serve ~attribution @@ fun () ->
    with_results ~threads_list ~seconds ~trials ~seed ~metrics ?baseline
    @@ fun () ->
    List.iter
      (function
        | `F8 ->
            sweep ~id:"Figure 8 (top)" ~detail:"uniform i5-d5-f90"
              Harness.all_subjects
              Harness.{ universe = large; mix = Mix.i5_d5_f90; dist = Uniform };
            sweep ~id:"Figure 8 (bottom)" ~detail:"uniform i50-d50-f0"
              Harness.all_subjects
              Harness.{ universe = large; mix = Mix.i50_d50_f0; dist = Uniform }
        | `F9 ->
            sweep ~id:"Figure 9 (top)"
              ~detail:"uniform i5-d5-f90, high contention" Harness.all_subjects
              Harness.{ universe = small; mix = Mix.i5_d5_f90; dist = Uniform };
            sweep ~id:"Figure 9 (bottom)"
              ~detail:"uniform i50-d50-f0, high contention" Harness.all_subjects
              Harness.{ universe = small; mix = Mix.i50_d50_f0; dist = Uniform }
        | `F10 ->
            sweep ~id:"Figure 10" ~detail:"PAT replace i10-d10-r80"
              [ Harness.pat_subject ]
              Harness.{ universe = large; mix = Mix.i10_d10_r80; dist = Uniform }
        | `F11 ->
            sweep ~id:"Figure 11"
              ~detail:"non-uniform (runs of 50) i15-d15-f70"
              Harness.all_subjects
              Harness.
                { universe = large; mix = Mix.i15_d15_f70; dist = Clustered 50 }
        | `Scan -> scan_figures ~threads_list ~seconds ~trials ~seed)
      ids
  in
  let doc =
    "Regenerate the paper's evaluation figures (and the regression gate's \
     scan datapoints)."
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(
      const run $ id_arg $ range_arg $ threads_arg $ seconds_arg $ trials_arg
      $ seed_arg $ csv_arg $ metrics_arg $ baseline_arg $ backoff_arg
      $ trace_out_arg $ serve_arg $ attribution_arg)

(* ------------------------------------------------------------------ *)
(* extra subcommand: configurations the paper mentions without plotting *)

let extra_cmd =
  let which_arg =
    let doc =
      "Which extra experiment: medium-contention (range 10^3, the paper says \
       it resembles low contention), i15-d15-f70-uniform (ditto), or \
       clustered-runs (longer run lengths degrade BST/4-ST further)."
    in
    Arg.(
      value
      & opt (enum
               [
                 ("medium-contention", `Medium);
                 ("i15-d15-f70-uniform", `I15);
                 ("clustered-runs", `Runs);
                 ("kary-arity", `Arity);
               ])
          `Medium
      & info [ "which" ] ~doc)
  in
  let run which threads_list seconds trials seed csv metrics backoff trace_out
      serve attribution =
    set_backoff backoff;
    let sweep = run_sweep ~threads_list ~seconds ~trials ~seed ~csv in
    with_flight_recorder ~trace_out ~serve ~attribution @@ fun () ->
    with_results ~threads_list ~seconds ~trials ~seed ~metrics @@ fun () ->
    match which with
    | `Medium ->
        sweep ~id:"Extra: uniform i5-d5-f90, range 10^3 (medium contention)"
          Harness.all_subjects
          Harness.{ universe = 1_000; mix = Mix.i5_d5_f90; dist = Uniform };
        sweep ~id:"Extra: uniform i50-d50-f0, range 10^3" Harness.all_subjects
          Harness.{ universe = 1_000; mix = Mix.i50_d50_f0; dist = Uniform }
    | `I15 ->
        sweep ~id:"Extra: uniform i15-d15-f70, range 10^6" Harness.all_subjects
          Harness.
            { universe = 1_000_000; mix = Mix.i15_d15_f70; dist = Uniform }
    | `Runs ->
        List.iter
          (fun len ->
            sweep
              ~id:
                (Printf.sprintf "Extra: non-uniform runs of %d, i15-d15-f70" len)
              Harness.all_subjects
              Harness.
                {
                  universe = 1_000_000;
                  mix = Mix.i15_d15_f70;
                  dist = Clustered len;
                })
          [ 50; 200; 1000 ]
    | `Arity ->
        (* Re-check Brown & Helga's finding (which the paper adopts) that
           k = 4 is the sweet spot for the k-ary search tree. *)
        let subjects =
          List.map
            (fun arity ->
              Harness.
                {
                  label = Printf.sprintf "%d-ST" arity;
                  make =
                    (fun ~universe ->
                      let t = Kary.create_k ~k:arity ~universe () in
                      {
                        insert = Kary.insert t;
                        delete = Kary.delete t;
                        member = Kary.member t;
                        replace = None;
                        stats = None;
                      });
                })
            [ 2; 4; 8; 16; 32 ]
        in
        sweep ~id:"Extra: k-ary arity sweep, uniform i50-d50-f0, range 10^6"
          subjects
          Harness.{ universe = 1_000_000; mix = Mix.i50_d50_f0; dist = Uniform }
  in
  let doc = "Run configurations the paper mentions but does not plot." in
  Cmd.v (Cmd.info "extra" ~doc)
    Term.(
      const run $ which_arg $ threads_arg $ seconds_arg $ trials_arg $ seed_arg
      $ csv_arg $ metrics_arg $ backoff_arg $ trace_out_arg $ serve_arg
      $ attribution_arg)

(* ------------------------------------------------------------------ *)
(* custom subcommand *)

let custom_cmd =
  let pct name = Arg.(value & opt int 0 & info [ name ] ~doc:(name ^ " percentage")) in
  let range_arg =
    Arg.(value & opt int 1_000_000 & info [ "range" ] ~doc:"Key range (universe).")
  in
  let clustered_arg =
    let doc = "Use the non-uniform distribution with runs of this length." in
    Arg.(value & opt (some int) None & info [ "clustered" ] ~doc)
  in
  let run insert delete find replace range clustered threads_list seconds trials
      seed csv metrics backoff trace_out serve attribution =
    set_backoff backoff;
    match Harness.Mix.v ~insert ~delete ~find ~replace () with
    | exception Invalid_argument m -> `Error (false, m)
    | mix ->
        let dist =
          match clustered with
          | None -> Harness.Uniform
          | Some len -> Harness.Clustered len
        in
        let subjects =
          if replace > 0 then [ Harness.pat_subject ] else Harness.all_subjects
        in
        with_flight_recorder ~trace_out ~serve ~attribution @@ fun () ->
        with_results ~threads_list ~seconds ~trials ~seed ~metrics @@ fun () ->
        run_sweep ~threads_list ~seconds ~trials ~seed ~csv
          ~id:
            (Printf.sprintf "Custom: %s, range (0, %d)%s" (Harness.Mix.to_string mix)
               range
               (match clustered with
               | None -> ""
               | Some l -> Printf.sprintf ", runs of %d" l))
          subjects
          Harness.{ universe = range; mix; dist };
        `Ok ()
  in
  let doc = "Run a custom operation mix / distribution / range." in
  Cmd.v (Cmd.info "custom" ~doc)
    Term.(
      ret
        (const run $ pct "insert" $ pct "delete" $ pct "find" $ pct "replace"
       $ range_arg $ clustered_arg $ threads_arg $ seconds_arg $ trials_arg
       $ seed_arg $ csv_arg $ metrics_arg $ backoff_arg $ trace_out_arg
       $ serve_arg $ attribution_arg))

(* ------------------------------------------------------------------ *)
(* ablation subcommand *)

(* Replace vs non-atomic delete+insert on PAT: quantifies what the atomic
   operation costs (or saves) relative to the naive composition. *)
let ablation_replace ~threads_list ~seconds ~trials ~seed ~csv =
  let composed_subject =
    Harness.
      {
        label = "del+ins";
        make =
          (fun ~universe ->
            let t = Core.Patricia.create ~universe () in
            {
              insert = Core.Patricia.insert t;
              delete = Core.Patricia.delete t;
              member = Core.Patricia.member t;
              replace =
                Some
                  (fun remove add ->
                    (* Non-atomic composition: the pair of states is
                       transiently visible, unlike the real replace. *)
                    if Core.Patricia.delete t remove then begin
                      ignore (Core.Patricia.insert t add);
                      true
                    end
                    else false);
              stats = None;
            });
      }
  in
  run_sweep ~threads_list ~seconds ~trials ~seed ~csv
    ~id:"Ablation: atomic replace vs delete+insert, i10-d10-r80, range 10^6"
    [ Harness.pat_subject; composed_subject ]
    Harness.{ universe = 1_000_000; mix = Mix.i10_d10_r80; dist = Uniform }

(* Help-rate: how often updates retry, abandon flagging, help each other
   or back out as contention rises; reads PAT's internal counters over
   the timed windows of every trial. *)
let ablation_helping ~threads_list ~seconds ~trials ~seed ~csv =
  Format.printf
    "@.=== Ablation: PAT coordination overhead vs contention (i50-d50-f0) ===@.";
  Format.printf "%-10s %8s %12s %12s %12s %12s %12s@." "range" "threads"
    "ops/s" "attempts/op" "flagfail/op" "helps/op" "backtrk/op";
  let csv_rows = ref [] in
  List.iter
    (fun universe ->
      List.iter
        (fun threads ->
          let full =
            measure
              ~id:(Printf.sprintf "Ablation: helping, range (0, %d)" universe)
              ~seconds ~trials ~seed Harness.pat_subject_stats
              Harness.{ universe; mix = Mix.i50_d50_f0; dist = Uniform }
              threads
          in
          let dp = full.Harness.dp in
          let ops_total =
            List.fold_left ( +. ) 0.0 dp.Harness.samples *. seconds
          in
          let per name =
            float_of_int
              (Option.value ~default:0
                 (List.assoc_opt name full.Harness.counters))
            /. ops_total
          in
          let attempts = per "attempts" and flagfail = per "flag_failures" in
          let helps = per "helps_given" and backtracks = per "backtracks" in
          Format.printf "%-10d %8d %12.0f %12.3f %12.5f %12.5f %12.5f@."
            universe threads dp.Harness.mean attempts flagfail helps
            backtracks;
          csv_rows :=
            Printf.sprintf "csv,%d,%d,%.0f,%.0f,%.3f,%.5f,%.5f,%.5f" universe
              threads dp.Harness.mean dp.Harness.stddev attempts flagfail helps
              backtracks
            :: !csv_rows)
        threads_list)
    [ 100; 10_000; 1_000_000 ];
  if csv then
    List.iter (Format.printf "%s@.")
      ("csv,range,threads,mean,stddev,attempts/op,flagfail/op,helps/op,\
        backtrk/op"
      :: List.rev !csv_rows);
  Format.print_flush ()

(* Key-width sweep: same live key count, growing universe — longer keys
   mean longer trie paths; quantifies the height-vs-width tradeoff. *)
let ablation_width ~threads_list ~seconds ~trials ~seed ~csv =
  List.iter
    (fun universe ->
      run_sweep ~threads_list ~seconds ~trials ~seed ~csv
        ~id:
          (Printf.sprintf "Ablation: PAT key-width, range (0, %d), i50-d50-f0"
             universe)
        [ Harness.pat_subject ]
        Harness.{ universe; mix = Mix.i50_d50_f0; dist = Uniform })
    [ 1 lsl 8; 1 lsl 12; 1 lsl 16; 1 lsl 20; 1 lsl 24 ]

(* The price of lock-freedom: the concurrent trie vs the plain sequential
   trie, single-threaded.  The gap is the flag/descriptor machinery. *)
let ablation_seq ~threads_list ~seconds ~trials ~seed ~csv =
  ignore threads_list;
  let seq_subject =
    Harness.
      {
        label = "SEQ-PAT";
        make =
          (fun ~universe ->
            let t = Core.Patricia_seq.create ~universe () in
            {
              insert = Core.Patricia_seq.insert t;
              delete = Core.Patricia_seq.delete t;
              member = Core.Patricia_seq.member t;
              replace = None;
              stats = None;
            });
      }
  in
  List.iter
    (fun universe ->
      run_sweep ~threads_list:[ 1 ] ~seconds ~trials ~seed ~csv
        ~id:
          (Printf.sprintf
             "Ablation: coordination cost, 1 thread, range (0, %d), i50-d50-f0"
             universe)
        [ Harness.pat_subject; seq_subject ]
        Harness.{ universe; mix = Mix.i50_d50_f0; dist = Uniform })
    [ 1_000; 1_000_000 ]

(* Unbounded-length keys (Section VI) vs fixed-width keys carrying the
   same information: the cost of multi-word labels. *)
let ablation_vlk ~threads_list ~seconds ~trials ~seed ~csv =
  let universe = 65_536 in
  let vlk_subject =
    Harness.
      {
        label = "PAT-VLK";
        make =
          (fun ~universe:_ ->
            let t = Core.Patricia_vlk.create () in
            let key k = Printf.sprintf "%08x" k in
            {
              insert = (fun k -> Core.Patricia_vlk.insert t (key k));
              delete = (fun k -> Core.Patricia_vlk.delete t (key k));
              member = (fun k -> Core.Patricia_vlk.member t (key k));
              replace =
                Some
                  (fun remove add ->
                    Core.Patricia_vlk.replace t ~remove:(key remove)
                      ~add:(key add));
              stats = None;
            });
      }
  in
  run_sweep ~threads_list ~seconds ~trials ~seed ~csv
    ~id:
      (Printf.sprintf
         "Ablation: fixed-width vs unbounded keys, range (0, %d), i50-d50-f0"
         universe)
    [ Harness.pat_subject; vlk_subject ]
    Harness.{ universe; mix = Mix.i50_d50_f0; dist = Uniform }

(* Contention cliff: PAT with and without bounded exponential backoff on
   small universes, where retry storms are the dominant cost.  The same
   binary runs both arms so the comparison shares code and seeds. *)
let ablation_backoff ~threads_list ~seconds ~trials ~seed ~csv =
  let was = Chaos.Backoff.enabled () in
  Fun.protect ~finally:(fun () -> Chaos.Backoff.set_enabled was) @@ fun () ->
  List.iter
    (fun universe ->
      List.iter
        (fun backoff ->
          Chaos.Backoff.set_enabled backoff;
          run_sweep ~threads_list ~seconds ~trials ~seed ~csv
            ~id:
              (Printf.sprintf
                 "Ablation: backoff %s, range (0, %d), i50-d50-f0"
                 (if backoff then "on" else "off")
                 universe)
            [ Harness.pat_subject ]
            Harness.{ universe; mix = Mix.i50_d50_f0; dist = Uniform })
        [ false; true ])
    [ 100; 1_000 ]

let ablation_cmd =
  let which_arg =
    let doc = "Which ablation: replace, helping, width, seq, vlk, or backoff." in
    Arg.(
      value
      & opt
          (enum
             [
               ("replace", `Replace);
               ("helping", `Helping);
               ("width", `Width);
               ("seq", `Seq);
               ("vlk", `Vlk);
               ("backoff", `Backoff);
             ])
          `Replace
      & info [ "which" ] ~doc)
  in
  let run which threads_list seconds trials seed csv metrics backoff trace_out
      serve attribution =
    set_backoff backoff;
    with_flight_recorder ~trace_out ~serve ~attribution @@ fun () ->
    with_results ~threads_list ~seconds ~trials ~seed ~metrics @@ fun () ->
    match which with
    | `Replace -> ablation_replace ~threads_list ~seconds ~trials ~seed ~csv
    | `Helping -> ablation_helping ~threads_list ~seconds ~trials ~seed ~csv
    | `Width -> ablation_width ~threads_list ~seconds ~trials ~seed ~csv
    | `Seq -> ablation_seq ~threads_list ~seconds ~trials ~seed ~csv
    | `Vlk -> ablation_vlk ~threads_list ~seconds ~trials ~seed ~csv
    | `Backoff -> ablation_backoff ~threads_list ~seconds ~trials ~seed ~csv
  in
  let doc = "Run an ablation study on the Patricia trie's design choices." in
  Cmd.v (Cmd.info "ablation" ~doc)
    Term.(
      const run $ which_arg $ threads_arg $ seconds_arg $ trials_arg $ seed_arg
      $ csv_arg $ metrics_arg $ backoff_arg $ trace_out_arg $ serve_arg
      $ attribution_arg)

(* ------------------------------------------------------------------ *)
(* serve subcommand: the trie behind the patserve binary protocol *)

(* [Patricia.create]'s optional [?record_stats] keeps it out of
   [CONCURRENT_SET_WITH_REPLACE] verbatim; the ref lets the serve
   path switch descent accounting on for the recovered trie too
   (set before [Pstore.open_], read once at create). *)
let pstore_record_stats = ref false

module Pstore = Persist.Store.Make (struct
  include Core.Patricia

  let create ~universe () =
    Core.Patricia.create ~universe ~record_stats:!pstore_record_stats ()

  let snapshot = Core.Patricia.snapshot_capability
end)

let pp_recovery ppf (ri : Pstore.recovery_info) =
  Format.fprintf ppf
    "recovered: checkpoint %s (%d keys%s), wal %d segments / %d records / %d \
     replayed%s, last seq %d"
    (match ri.Pstore.checkpoint_seq with
    | Some s -> Printf.sprintf "@%d" s
    | None -> "none")
    ri.Pstore.checkpoint_keys
    (if ri.Pstore.checkpoints_skipped > 0 then
       Printf.sprintf ", %d corrupt skipped" ri.Pstore.checkpoints_skipped
     else "")
    ri.Pstore.wal_segments ri.Pstore.wal_records ri.Pstore.wal_replayed
    (if ri.Pstore.torn_tail then ", torn tail truncated" else "")
    ri.Pstore.last_seq

let serve_cmd =
  let port_arg =
    let doc = "TCP port to serve the set protocol on (0 = ephemeral)." in
    Arg.(value & opt int 7113 & info [ "port" ] ~doc)
  in
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (universe) of the served trie.")
  in
  let domains_arg =
    let doc = "Worker domains sharing the listening socket." in
    Arg.(value & opt int 4 & info [ "domains" ] ~doc)
  in
  let metrics_port_arg =
    let doc =
      "Also serve Prometheus metrics over HTTP on 127.0.0.1:$(docv): the \
       harness live families plus per-opcode patserve request counters and \
       latency histograms.  Port 0 binds an ephemeral port."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~doc ~docv:"PORT")
  in
  let seconds_opt_arg =
    let doc = "Stop (with a graceful drain) after this many seconds; \
               without it, serve until SIGINT/SIGTERM." in
    Arg.(value & opt (some float) None & info [ "seconds" ] ~doc)
  in
  let data_dir_arg =
    let doc =
      "Durable state directory (WAL segments + checkpoints).  On startup the \
       newest valid checkpoint is loaded and the log tail replayed; without \
       this flag the served set is purely in-memory."
    in
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~doc ~docv:"DIR")
  in
  let durability_arg =
    let doc =
      "With --data-dir: $(b,none) recovers but logs nothing, $(b,async) logs \
       every mutation without fsync (crash loses the unwritten tail), \
       $(b,sync) group-commits — acknowledgements wait for the batch fsync, \
       so every acked mutation survives kill -9 and power loss."
    in
    Arg.(
      value
      & opt (enum [ ("none", `None); ("async", `Async); ("sync", `Sync) ]) `Sync
      & info [ "durability" ] ~doc)
  in
  let checkpoint_s_arg =
    let doc =
      "Write a checkpoint of the live trie every $(docv) seconds (beside \
       traffic, no pause) and delete WAL segments it supersedes."
    in
    Arg.(
      value & opt (some float) None & info [ "checkpoint-s" ] ~doc ~docv:"SECS")
  in
  let serve_trace_arg =
    let doc =
      "Record the fused server timeline — trie update attempts, per-request \
       stage spans on one Perfetto track per connection, and (with \
       --runtime-events) GC/STW spans on runtime tracks — and write it as \
       Chrome trace-event JSON to $(docv) at shutdown."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"PATH")
  in
  let runtime_events_arg =
    let doc =
      "Subscribe a collector domain to OCaml runtime events: GC pause and \
       STW spans are fused into the --trace-out timeline and exported as \
       patserve_gc_* metric families.  If the runtime-events subsystem \
       cannot start, the server logs a warning and keeps serving."
    in
    Arg.(value & flag & info [ "runtime-events" ] ~doc)
  in
  let max_conns_arg =
    let doc =
      "Admission control: accept at most $(docv) simultaneous connections \
       across all workers; beyond it a new connection gets one BUSY frame \
       (with a retry-after hint) and is closed.  Without it, no limit."
    in
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~doc ~docv:"N")
  in
  let idle_timeout_arg =
    let doc =
      "Reap connections with no traffic and no pending output for $(docv) \
       seconds.  Without it, idle connections are kept forever."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout-s" ] ~doc ~docv:"SECS")
  in
  let queue_deadline_arg =
    let doc =
      "Per-request queue deadline: a request that waited more than $(docv) \
       milliseconds behind earlier frames of its pipeline window is answered \
       BUSY instead of executed.  Without it, no deadline."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "queue-deadline-ms" ] ~doc ~docv:"MS")
  in
  let soft_buffer_arg =
    let doc =
      "Per-connection output-buffer soft cap in KiB: above it the \
       connection is no longer read from, so the client's pipelining stalls \
       instead of growing the buffer (backpressure)."
    in
    Arg.(value & opt int 256 & info [ "soft-buffer-kb" ] ~doc ~docv:"KIB")
  in
  let hard_buffer_arg =
    let doc =
      "Per-connection output-buffer hard cap in KiB: a connection still \
       above it after a flush attempt is evicted (counted and logged)."
    in
    Arg.(value & opt int 4096 & info [ "hard-buffer-kb" ] ~doc ~docv:"KIB")
  in
  let follow_arg =
    let doc =
      "Start as a replication follower of the primary at $(docv): subscribe \
       to its WAL stream from the persisted watermark, apply every record \
       through the normal store path (re-logged into this server's own WAL), \
       serve reads within --staleness, and refuse mutations until PROMOTE.  \
       Requires --data-dir with --durability async or sync."
    in
    let parse s =
      match String.rindex_opt s ':' with
      | Some i -> (
          let host = String.sub s 0 i in
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some p when p > 0 && host <> "" -> Ok (host, p)
          | _ -> Error (`Msg ("expected HOST:PORT, got " ^ s)))
      | None -> Error (`Msg ("expected HOST:PORT, got " ^ s))
    in
    let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "follow" ] ~doc ~docv:"HOST:PORT")
  in
  let bootstrap_arg =
    let doc =
      "With --follow: if subscribing from the persisted watermark is \
       rejected because the primary checkpointed that history away \
       (\"resync required\"), snapshot-bootstrap instead of exiting — \
       stream the primary's contents as frozen SCAN pages into this \
       (fresh, empty) store, then subscribe from the pages' WAL cut.  \
       Refused on a store that recovered any keys: bootstrap pages only \
       insert, so stale local keys would survive."
    in
    Arg.(value & flag & info [ "bootstrap" ] ~doc)
  in
  let staleness_arg =
    let doc =
      "Follower read staleness bound: MEMBER/SIZE are served while this \
       replica's applied position is within $(docv) records of the \
       primary's head, and declined BUSY past it (the watchdog reports \
       degraded: repl_lag at the same threshold)."
    in
    Arg.(value & opt int 1024 & info [ "staleness" ] ~doc ~docv:"RECORDS")
  in
  let repl_sync_arg =
    let doc =
      "Sync-ack replication (primary side): a mutation's acknowledgement \
       additionally waits until every attached follower has applied it, so \
       an acked write survives losing the primary outright.  Without it \
       followers trail asynchronously."
    in
    Arg.(value & flag & info [ "repl-sync" ] ~doc)
  in
  let run port range domains metrics_port seconds data_dir durability
      checkpoint_s trace_out runtime_events max_conns idle_timeout_s
      queue_deadline_ms soft_buffer_kb hard_buffer_kb follow bootstrap
      staleness repl_sync =
    (* Anti-entropy hash tree width: enough prefix bits to cover the
       whole key universe, so a HASHCHECK descent bottoms out at a
       single key after [width] levels — the O(log n) bound. *)
    let hash_width =
      let w = ref 0 in
      while 1 lsl !w < range do
        incr w
      done;
      !w
    in
    (* Assemble the served operations, the ack barrier, the periodic-tick
       work, the teardown, the live trie handle (for the shape census
       and descent histogram) and the replication hooks from the
       durability configuration. *)
    let ops, get_trie, barrier, tick, teardown, durability_banner, repl, gate =
      match data_dir with
      | None ->
          (* Descent accounting rides on the metrics endpoint: striped
             per domain, so it does not serialize the served trie. *)
          let trie =
            Core.Patricia.create ~universe:range
              ~record_stats:(metrics_port <> None) ()
          in
          if follow <> None then
            failwith "patserve: --follow requires --data-dir (replication \
                      streams the WAL)";
          ( Server.
              {
                insert = Core.Patricia.insert trie;
                delete = Core.Patricia.delete trie;
                member = Core.Patricia.member trie;
                replace =
                  (fun ~remove ~add -> Core.Patricia.replace trie ~remove ~add);
                size = (fun () -> Core.Patricia.size trie);
                snapshot =
                  (fun () -> Core.Patricia.snapshot_capability trie);
                scan_cut = (fun () -> -1);
              },
            (fun () -> trie),
            (fun () -> ()),
            (fun () -> ()),
            (fun () -> ()),
            "in-memory",
            None,
            None )
      | Some dir ->
          let mode =
            match durability with
            | `None -> Pstore.Ephemeral
            | `Async -> Pstore.Async
            | `Sync -> Pstore.Sync
          in
          if follow <> None && mode = Pstore.Ephemeral then
            failwith "patserve: --follow requires --durability async or sync \
                      (the follower re-logs applied records)";
          pstore_record_stats := metrics_port <> None;
          (* Behind a ref: PROMOTE swaps in a freshly recovered store
             (seal the WAL, re-run open-time recovery, start a new
             writer) while the serving closures stay in place. *)
          let store = ref (Pstore.open_ ~dir ~universe:range ~mode ()) in
          Persist.Metrics.set_queue_depth_source
            (Some (fun () -> Pstore.queue_depth !store));
          Format.printf "patserve: %a@." pp_recovery
            (Pstore.recovery_info !store);
          (* Replication roles.  A durable server is always willing to
             be a primary (it has a WAL to stream); with --follow it
             starts as a follower instead and becomes a primary only
             through PROMOTE. *)
          let primary : Replica.Primary.t option ref = ref None in
          let follower : Replica.Follower.t option ref = ref None in
          let repl_mu = Mutex.create () in
          let wire_primary () =
            match Pstore.wal_writer !store with
            | None -> ()
            | Some w ->
                let p =
                  Replica.Primary.create ~dir ~writer:w ~sync_ack:repl_sync ()
                in
                Pstore.set_retention_hook !store
                  (Replica.Primary.retention_floor p);
                primary := Some p
          in
          let follower_ops =
            (* Forced application through the normal store path: the
               result-conditional logging means every effect that
               changed the trie lands in the follower's own WAL, so
               crash recovery is the ordinary open path, verbatim. *)
            Replica.Follower.
              {
                apply_insert =
                  (fun k -> ignore (Pstore.insert !store k : bool));
                apply_delete =
                  (fun k -> ignore (Pstore.delete !store k : bool));
                wal_sync =
                  (fun () ->
                    match Pstore.wal_writer !store with
                    | Some w ->
                        let last = Pstore.last_logged_here !store in
                        if last >= 0 then
                          Persist.Wal.Writer.wait_durable w last
                    | None -> ());
              }
          in
          (match follow with
          | None -> wire_primary ()
          | Some (fhost, fport) -> (
              let subscribe from_seq =
                Replica.Follower.start ~addr:fhost ~port:fport ~from_seq
                  ~watermark_dir:dir follower_ops
              in
              let contains_resync msg =
                let n = String.length msg in
                let rec go i =
                  i + 6 <= n && (String.sub msg i 6 = "resync" || go (i + 1))
                in
                go 0
              in
              let from_seq =
                match Replica.Watermark.read ~dir with
                | Some w -> w + 1
                | None -> 0
              in
              let started =
                match subscribe from_seq with
                | Result.Error msg when contains_resync msg && not bootstrap ->
                    (* Distinct exit code: the follower is not broken, it
                       is stale past the primary's retained history.  An
                       orchestrator matches on 3 to trigger the resync
                       remedy instead of a blind restart loop. *)
                    Format.eprintf
                      "patserve: cannot follow %s:%d: %s@.patserve: the \
                       primary no longer retains WAL history back to seq %d \
                       — snapshot-bootstrap this follower instead: wipe its \
                       --data-dir and re-run with --bootstrap to stream the \
                       primary's frozen SCAN pages and subscribe from their \
                       WAL cut.@."
                      fhost fport msg from_seq;
                    Format.pp_print_flush Format.err_formatter ();
                    exit 3
                | Result.Error msg when contains_resync msg ->
                    if Pstore.size !store > 0 then begin
                      Format.eprintf
                        "patserve: --bootstrap needs a fresh store, but %s \
                         recovered %d keys; wipe the --data-dir first \
                         (bootstrap pages only insert, so stale local keys \
                         would survive).@."
                        dir (Pstore.size !store);
                      Format.pp_print_flush Format.err_formatter ();
                      exit 3
                    end;
                    (match
                       Replica.Follower.bootstrap ~addr:fhost ~port:fport
                         follower_ops
                     with
                    | Result.Error bmsg ->
                        failwith ("patserve: snapshot-bootstrap: " ^ bmsg)
                    | Result.Ok (bs_from, keys) ->
                        Format.printf
                          "patserve: snapshot-bootstrap streamed %d keys \
                           from %s:%d; subscribing from seq %d@."
                          keys fhost fport bs_from;
                        (* Stamp the watermark before subscribing so a
                           crash in the gap re-subscribes from the cut,
                           not from seq 0. *)
                        Replica.Watermark.write ~dir (bs_from - 1);
                        subscribe bs_from)
                | r -> r
              in
              match started with
              | Result.Error msg ->
                  failwith ("patserve: cannot follow: " ^ msg)
              | Result.Ok f ->
                  Format.printf
                    "patserve: following %s:%d (staleness bound %d \
                     records%s)@."
                    fhost fport staleness
                    (if repl_sync then ", will sync-ack after promotion"
                     else "");
                  follower := Some f));
          Replica.Metrics.set_lag_sources
            ~records:
              (Some
                 (fun () ->
                   match (!follower, !primary) with
                   | Some f, _ -> Replica.Follower.lag_records f
                   | None, Some p -> Replica.Primary.lag_records p
                   | None, None -> 0))
            ~bytes:
              (Some
                 (fun () ->
                   match (!follower, !primary) with
                   | Some f, _ -> Replica.Follower.lag_bytes f
                   | None, Some p -> Replica.Primary.lag_bytes p
                   | None, None -> 0));
          let repl_hooks =
            Server.
              {
                subscribe =
                  (fun ~fd ~seq ~from_seq ->
                    match !primary with
                    | Some p -> Replica.Primary.subscribe p ~fd ~seq ~from_seq
                    | None ->
                        Replica.reject_subscribe
                          ~reason:
                            "not a primary: followers do not serve \
                             subscriptions"
                          ~fd ~seq ~from_seq);
                hashcheck =
                  (fun ~prefix ~len ->
                    let trie = Pstore.underlying !store in
                    let fold ~lo ~hi ~init ~f =
                      Core.Patricia.fold_range trie ~lo ~hi ~init ~f
                    in
                    Replica.Hash.hashes fold ~width:hash_width ~prefix ~len);
                promote =
                  (fun () ->
                    Mutex.lock repl_mu;
                    Fun.protect
                      ~finally:(fun () -> Mutex.unlock repl_mu)
                    @@ fun () ->
                    match !follower with
                    | None ->
                        (* Already a primary (or promoted concurrently):
                           PROMOTE is idempotent by design — the crash
                           fuzzer promotes twice on purpose. *)
                        Result.Ok ()
                    | Some f ->
                        (* Detach (final watermark persisted), seal the
                           follower's WAL, and flip to primary through
                           the ordinary open-time recovery. *)
                        Replica.Follower.stop f;
                        follower := None;
                        Pstore.close !store;
                        store := Pstore.open_ ~dir ~universe:range ~mode ();
                        wire_primary ();
                        Obs.Counter.incr Replica.Metrics.promotions;
                        Format.printf "patserve: promoted to primary: %a@."
                          pp_recovery
                          (Pstore.recovery_info !store);
                        Format.print_flush ();
                        Result.Ok ());
              }
          in
          let gate op =
            match !follower with
            | None -> `Proceed
            | Some f ->
                Replica.Gate.follower ~staleness
                  ~lag:(fun () -> Replica.Follower.lag_records f)
                  ~retry_after_ms:25 op
          in
          let ops =
            Server.
              {
                insert = (fun k -> Pstore.insert !store k);
                delete = (fun k -> Pstore.delete !store k);
                member = (fun k -> Pstore.member !store k);
                replace =
                  (fun ~remove ~add -> Pstore.replace !store ~remove ~add);
                size = (fun () -> Pstore.size !store);
                snapshot = (fun () -> Pstore.snapshot !store);
                scan_cut = (fun () -> Pstore.scan_cut !store);
              }
          in
          let run_checkpoint () =
            let keys, deleted = Pstore.checkpoint !store in
            Format.printf "patserve: checkpoint (%d keys, %d segments freed)@."
              keys deleted;
            Format.print_flush ()
          in
          let last_ckpt = ref (Unix.gettimeofday ()) in
          let tick () =
            match checkpoint_s with
            | Some every
              when mode <> Pstore.Ephemeral
                   && Unix.gettimeofday () -. !last_ckpt >= every ->
                run_checkpoint ();
                last_ckpt := Unix.gettimeofday ()
            | _ -> ()
          in
          let teardown () =
            (* Detach replication first: the follower's stop persists a
               final watermark, the primary's joins its streamers. *)
            (match !follower with
            | Some f ->
                Replica.Follower.stop f;
                follower := None
            | None -> ());
            (match !primary with
            | Some p ->
                Replica.Primary.stop p;
                primary := None
            | None -> ());
            Replica.Metrics.set_lag_sources ~records:None ~bytes:None;
            (* Final image makes the next open cheap; the writer must
               still be running (checkpoint awaits durability). *)
            if mode <> Pstore.Ephemeral then run_checkpoint ();
            Pstore.close !store
          in
          ( ops,
            (fun () -> Pstore.underlying !store),
            (fun () ->
              Pstore.barrier !store;
              (* Sync-ack: the acknowledgement additionally waits until
                 every attached follower has applied this domain's last
                 logged record. *)
              match !primary with
              | Some p ->
                  Replica.Primary.wait_acked p (Pstore.last_logged_here !store)
              | None -> ()),
            tick,
            teardown,
            Printf.sprintf "durability=%s dir=%s%s" (Pstore.mode_name mode) dir
              (match follow with
              | Some (h, p) -> Printf.sprintf " follower-of=%s:%d" h p
              | None -> ""),
            Some repl_hooks,
            Some gate )
    in
    (* Flight recorder: the same trace ring collects trie attempt spans,
       per-connection request/stage spans and (below) runtime-events
       GC spans, so one Perfetto file shows all three layers aligned. *)
    let recorder =
      Option.map (fun _ -> Obs.Trace.create ~capacity:65536 ()) trace_out
    in
    Option.iter (fun t -> Obs.Trace.set_recorder (Some t)) recorder;
    let runtime =
      if not runtime_events then None
      else
        match Obs.Runtime.start () with
        | Ok rt ->
            Format.printf "patserve: runtime-events collector attached@.";
            Some rt
        | Error m ->
            (* Never fatal: degraded observability beats a dead server. *)
            Format.printf
              "patserve: warning: runtime-events unavailable (%s), \
               continuing without GC telemetry@."
              m;
            None
    in
    let wd = Obs.Watchdog.create () in
    Obs.Watchdog.gauge wd ~name:"wal-queue" ~degraded_above:10_000
      ~stalled_above:100_000 Persist.Metrics.queue_depth;
    (* Replication lag rides the same watchdog: past the staleness
       bound /healthz reports "degraded: repl_lag".  Reads 0 on an
       unreplicated server (no lag sources installed). *)
    Obs.Watchdog.gauge wd ~name:"repl_lag" ~degraded_above:staleness
      Replica.Metrics.lag_records;
    Obs.Watchdog.start_monitor wd;
    let limits =
      {
        Server.default_limits with
        Server.max_conns;
        idle_timeout_s = idle_timeout_s;
        queue_deadline_ns =
          Option.map (fun ms -> int_of_float (ms *. 1e6)) queue_deadline_ms;
        soft_buffer_bytes = soft_buffer_kb * 1024;
        hard_buffer_bytes = hard_buffer_kb * 1024;
      }
    in
    let srv =
      Server.start ~port ~domains ~barrier ~watchdog:wd ~limits ?repl ?gate ops
    in
    Format.printf "patserve: %d domains on 127.0.0.1:%d, range (0, %d), %s@."
      domains (Server.port srv) range durability_banner;
    (match max_conns with
    | Some m -> Format.printf "patserve: admission limit %d connections@." m
    | None -> ());
    let metrics =
      Option.map
        (fun p ->
          Harness.Live.set_enabled true;
          Harness.Live.clear_extra_producers ();
          Harness.Live.add_extra_producer Server.Metrics.emit;
          Harness.Live.add_extra_producer Persist.Metrics.emit;
          Harness.Live.add_extra_producer Replica.Metrics.emit;
          Harness.Live.add_extra_producer (Obs.Watchdog.emit wd);
          if runtime <> None then
            Harness.Live.add_extra_producer Obs.Runtime.emit;
          (* Structure forensics: the shape census (pat_shape_*; an O(n)
             read-only walk per scrape) and the descent-depth histogram
             when the trie records stats. *)
          Harness.Live.add_extra_producer (fun b ->
              match Core.Patricia.census (get_trie ()) with
              | Some c -> Obs.Shape.emit b c
              | None -> ());
          Harness.Live.add_extra_producer (fun b ->
              match Core.Patricia.descent_summary (get_trie ()) with
              | Some s ->
                  Obs.Prometheus.histogram_summary b ~name:"pat_descent_depth"
                    ~help:"Nodes visited per search (descent depth)" s
              | None -> ());
          let routes =
            [
              ( "/debug/slowlog",
                fun () ->
                  ( "application/json",
                    Obs.Json.to_string (Obs.Slowlog.to_json Server.slowlog)
                    ^ "\n" ) );
              ( "/debug/shape",
                fun () ->
                  ( "application/json",
                    (match Core.Patricia.census (get_trie ()) with
                    | Some c -> Obs.Json.to_string (Obs.Shape.to_json c)
                    | None -> "null")
                    ^ "\n" ) );
            ]
          in
          let s =
            Obs.Serve.start ~port:p ~routes
              ~health:(Obs.Watchdog.healthz wd)
              Harness.Live.prometheus
          in
          Format.printf "serving metrics on http://127.0.0.1:%d/metrics@."
            (Obs.Serve.port s);
          s)
        metrics_port
    in
    Format.print_flush ();
    let stopping = Atomic.make false in
    let request_stop _ = Atomic.set stopping true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    let deadline =
      Option.map (fun s -> Unix.gettimeofday () +. s) seconds
    in
    let expired () =
      match deadline with
      | Some d -> Unix.gettimeofday () >= d
      | None -> false
    in
    while not (Atomic.get stopping || expired ()) do
      (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      tick ()
    done;
    Format.printf "patserve: draining and stopping@.";
    Format.print_flush ();
    Server.stop ~drain_s:1.0 srv;
    teardown ();
    Obs.Watchdog.stop_monitor wd;
    Option.iter Obs.Runtime.stop runtime;
    (* Write the trace only after the runtime collector's final drain so
       the last GC spans make it into the file. *)
    Obs.Trace.set_recorder None;
    (match (recorder, trace_out) with
    | Some t, Some path ->
        Obs.Perfetto.write ~path t;
        Format.printf
          "patserve: fused trace written to %s (%d events retained, %d \
           dropped)@."
          path
          (List.length (Obs.Trace.dump t))
          (Obs.Trace.dropped t)
    | _ -> ());
    (match Obs.Slowlog.dump Server.slowlog with
    | [] -> ()
    | entries ->
        let shown = List.filteri (fun i _ -> i < 10) entries in
        Format.printf
          "patserve: slowest requests (top %d of %d admitted, %d slots)@."
          (List.length shown)
          (Obs.Slowlog.inserted Server.slowlog)
          (Obs.Slowlog.capacity Server.slowlog);
        List.iter
          (fun e -> Format.printf "  %a@." Obs.Slowlog.pp_entry e)
          shown);
    Option.iter Obs.Serve.stop metrics;
    Harness.Live.clear_extra_producers ();
    Harness.Live.set_enabled false;
    Persist.Metrics.set_queue_depth_source None;
    Format.print_flush ()
  in
  let doc = "Serve the Patricia trie over the patserve binary protocol." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ port_arg $ range_arg $ domains_arg $ metrics_port_arg
      $ seconds_opt_arg $ data_dir_arg $ durability_arg $ checkpoint_s_arg
      $ serve_trace_arg $ runtime_events_arg $ max_conns_arg
      $ idle_timeout_arg $ queue_deadline_arg $ soft_buffer_arg
      $ hard_buffer_arg $ follow_arg $ bootstrap_arg $ staleness_arg
      $ repl_sync_arg)

(* ------------------------------------------------------------------ *)
(* recover subcommand: offline recovery / inspection of a data dir *)

let recover_cmd =
  let data_dir_arg =
    let doc = "Durable state directory to recover." in
    Arg.(
      required
      & opt (some string) None
      & info [ "data-dir" ] ~doc ~docv:"DIR")
  in
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ]
          ~doc:"Key range (universe) the directory was served with.")
  in
  let compact_arg =
    let doc =
      "After recovering, write a fresh checkpoint of the recovered state and \
       delete the WAL segments it supersedes."
    in
    Arg.(value & flag & info [ "compact" ] ~doc)
  in
  let run dir range compact =
    match Pstore.open_ ~dir ~universe:range ~mode:Pstore.Ephemeral () with
    | exception Failure m -> `Error (false, m)
    | store -> (
        Format.printf "%a@." pp_recovery (Pstore.recovery_info store);
        Format.printf "recovered set: %d keys@." (Pstore.size store);
        match Core.Patricia.check_invariants (Pstore.underlying store) with
        | Result.Error m ->
            `Error (false, "recovered trie violates invariants: " ^ m)
        | Result.Ok () ->
            if compact then begin
              let keys, deleted = Pstore.checkpoint store in
              Format.printf "compacted: checkpoint with %d keys, %d segments \
                             deleted@."
                keys deleted
            end;
            Format.print_flush ();
            `Ok ())
  in
  let doc =
    "Recover a --data-dir offline: load the newest valid checkpoint, replay \
     the WAL tail (truncating a torn tail), verify the trie's structural \
     invariants and report what was recovered."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(ret (const run $ data_dir_arg $ range_arg $ compact_arg))

(* ------------------------------------------------------------------ *)
(* load subcommand: closed-loop load generator against a running server *)

let load_cmd =
  let addr_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt int 7113 & info [ "port" ] ~doc:"Server port.")
  in
  let domains_arg =
    let doc = "Generator domains (one connection each)." in
    Arg.(value & opt int 4 & info [ "domains" ] ~doc)
  in
  let depth_arg =
    let doc = "Pipeline window: requests kept in flight per connection." in
    Arg.(value & opt int 16 & info [ "depth" ] ~doc)
  in
  let seconds_arg' =
    Arg.(value & opt float 5.0 & info [ "seconds" ] ~doc:"Load duration.")
  in
  let pct name dflt =
    Arg.(value & opt int dflt & info [ name ] ~doc:(name ^ " percentage"))
  in
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (must match the server's).")
  in
  let scrape_port_arg =
    let doc =
      "Scrape the server's Prometheus endpoint on 127.0.0.1:$(docv) at the \
       end of the run and embed the server-side per-opcode stage p50/p99 and \
       WAL fsync p99 in the report — the cross-check that client-observed \
       tail latency matches what the server accounted for."
    in
    Arg.(
      value & opt (some int) None & info [ "scrape-port" ] ~doc ~docv:"PORT")
  in
  let open_loop_arg =
    let doc =
      "Open-loop mode: offer $(docv) requests per second (total across \
       domains) on a fixed schedule instead of the closed loop — the \
       instrument for measuring overload.  Reports offered vs acked \
       (goodput), BUSY sheds/declines, lost requests and disconnects; \
       never fails on server overload, that is what it measures."
    in
    Arg.(
      value & opt (some float) None & info [ "open-loop" ] ~doc ~docv:"RATE")
  in
  let scan_every_arg =
    let doc =
      "Mix one SCAN page per $(docv) generated requests into the workload \
       (closed loop only; 0 = never).  Each generator runs a resumable \
       cursor and verifies every page against the cursor contract."
    in
    Arg.(value & opt int 0 & info [ "scan-every" ] ~doc ~docv:"N")
  in
  let scan_count_arg =
    Arg.(
      value & opt int 256
      & info [ "scan-count" ] ~doc:"Page size for generated SCANs.")
  in
  let run_open_loop ~addr ~port ~domains ~seconds ~mix ~range ~seed ~metrics
      rate =
    let cfg =
      Server.Loadgen.
        {
          addr;
          port;
          domains;
          rate;
          seconds;
          mix;
          universe = range;
          dist = Harness.Uniform;
          seed;
          reconnect_s = 0.05;
        }
    in
    Format.printf
      "load: open loop, offering %.0f req/s (%s) for %.1fs on %d domains@."
      rate (Harness.Mix.to_string mix) seconds domains;
    Format.print_flush ();
    let r = Server.Loadgen.run_open cfg in
    let l = r.Server.Loadgen.latency in
    Format.printf
      "load: offered %d, sent %d, acked %d in %.2fs = %.0f ops/s goodput@.\
       load: busy %d (shed rate %.3f), errors %d, lost %d, disconnects %d@.\
       load: ack latency ns p50=%d p90=%d p99=%d p99.9=%d max=%d@."
      r.Server.Loadgen.offered r.Server.Loadgen.sent r.Server.Loadgen.acked
      r.Server.Loadgen.elapsed_s r.Server.Loadgen.goodput
      r.Server.Loadgen.busy r.Server.Loadgen.shed_rate
      r.Server.Loadgen.errors r.Server.Loadgen.lost
      r.Server.Loadgen.disconnects l.Obs.Histogram.p50 l.Obs.Histogram.p90
      l.Obs.Histogram.p99 l.Obs.Histogram.p999 l.Obs.Histogram.max;
    Option.iter
      (fun path ->
        Obs.Json.to_file path (Server.Loadgen.open_report_to_json cfg r);
        Format.printf "load: report written to %s@." path)
      metrics;
    Format.print_flush ();
    `Ok ()
  in
  let run addr port domains depth seconds insert delete find replace range seed
      metrics scrape open_loop scan_every scan_count =
    match Harness.Mix.v ~insert ~delete ~find ~replace () with
    | exception Invalid_argument m -> `Error (false, m)
    | mix when open_loop <> None -> (
        match
          run_open_loop ~addr ~port ~domains ~seconds ~mix ~range ~seed
            ~metrics (Option.get open_loop)
        with
        | r -> r
        | exception Unix.Unix_error (e, fn, _) ->
            `Error
              (false, Printf.sprintf "%s failed: %s" fn (Unix.error_message e)))
    | mix -> (
        let cfg =
          Server.Loadgen.
            {
              addr;
              port;
              domains;
              depth;
              seconds;
              mix;
              universe = range;
              dist = Harness.Uniform;
              seed;
              journal = false;
              tolerate_disconnect = false;
              partition = false;
              scrape_port = scrape;
              scan_every;
              scan_count;
            }
        in
        try
          (* Size accounting baseline: works against a non-empty server
             too, the expectation is relative to what we found. *)
          let c0 = Server.Client.connect ~addr ~port () in
          let size_before = Server.Client.size c0 in
          Server.Client.close c0;
          let prefilled =
            Server.Loadgen.prefill ~addr ~port ~universe:range ~seed ()
          in
          Format.printf
            "load: prefilled %d keys (server had %d), running %s for %.1fs on \
             %d domains, depth %d@."
            prefilled size_before (Harness.Mix.to_string mix) seconds domains
            depth;
          Format.print_flush ();
          let r = Server.Loadgen.run cfg in
          let c1 = Server.Client.connect ~addr ~port () in
          let final = Server.Client.size c1 in
          Server.Client.close c1;
          let expected = size_before + prefilled + r.Server.Loadgen.size_delta in
          let l = r.Server.Loadgen.latency in
          Format.printf
            "load: %d ops in %.2fs = %.0f ops/s, %d errors@.\
             load: latency ns p50=%d p90=%d p99=%d p99.9=%d max=%d@.\
             load: final size %d, expected %d (replay of acknowledged ops)@."
            r.Server.Loadgen.ops r.Server.Loadgen.elapsed_s
            r.Server.Loadgen.throughput r.Server.Loadgen.errors
            l.Obs.Histogram.p50 l.Obs.Histogram.p90 l.Obs.Histogram.p99
            l.Obs.Histogram.p999 l.Obs.Histogram.max final expected;
          if r.Server.Loadgen.scan_pages > 0 then
            Format.printf
              "load: %d scan pages verified (%d keys streamed)@."
              r.Server.Loadgen.scan_pages r.Server.Loadgen.scan_keys;
          (match r.Server.Loadgen.server_metrics with
          | [] -> ()
          | kv ->
              Format.printf "load: server-side (scraped):";
              List.iter
                (fun (k, v) -> Format.printf " %s=%.0f" k v)
                kv;
              Format.printf "@.");
          Option.iter
            (fun path ->
              Obs.Json.to_file path (Server.Loadgen.report_to_json cfg r);
              Format.printf "load: report written to %s@." path)
            metrics;
          Format.print_flush ();
          if r.Server.Loadgen.errors > 0 then
            `Error (false, "load completed with application-level errors")
          else if final <> expected then
            `Error
              ( false,
                Printf.sprintf
                  "SIZE mismatch: server says %d, replay of acknowledged \
                   operations says %d — an acknowledged update was lost"
                  final expected )
          else `Ok ()
        with
        | Server.Client.Protocol_error m -> `Error (false, "protocol error: " ^ m)
        | Unix.Unix_error (e, fn, _) ->
            `Error
              (false, Printf.sprintf "%s failed: %s" fn (Unix.error_message e)))
  in
  let doc =
    "Drive a running patserve server with a multi-domain closed-loop \
     pipelined workload and verify the final SIZE against a replay of the \
     acknowledged operations."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      ret
        (const run $ addr_arg $ port_arg $ domains_arg $ depth_arg
       $ seconds_arg' $ pct "insert" 10 $ pct "delete" 10 $ pct "find" 0
       $ pct "replace" 80 $ range_arg $ seed_arg $ metrics_arg
       $ scrape_port_arg $ open_loop_arg $ scan_every_arg $ scan_count_arg))

(* ------------------------------------------------------------------ *)
(* analyze subcommand: structure forensics — shape census, bytes/key
   and descent-cost accounting for PAT vs PAT-VLK vs 4-ST on the same
   seeded half-full key set, or the census of a recovered --data-dir.
   This is the instrument behind EXPERIMENTS.md's "Anatomy of the
   raw-speed gap": it turns the PAT-vs-4-ST throughput difference into
   measured pointer dereferences per operation. *)

let analyze_cmd =
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (universe) of the analyzed stores.")
  in
  let seed_arg =
    Arg.(
      value & opt int 2013
      & info [ "seed" ] ~doc:"Seed of the half-fill permutation and probes.")
  in
  let probes_arg =
    Arg.(
      value & opt int 100_000
      & info [ "probes" ]
          ~doc:
            "Single-thread member probes per structure for the descent/time \
             micro-measure, split into 5 timed windows: ns/probe is the \
             median window, reported with the min-max.")
  in
  let data_dir_arg =
    let doc =
      "Census a recovered durable store instead of fresh synthetic \
       structures: load the newest checkpoint + WAL tail (read-only, \
       durability none) and report the live trie's census."
    in
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~doc ~docv:"DIR")
  in
  let json_arg =
    let doc = "Write the full census/descent document as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"PATH")
  in
  let pp_census (c : Dset_intf.census) =
    Format.printf
      "%-8s %8d keys  %8d internal  %8d leaf  %d sentinel  depth \
       mean %.2f p99 %d max %d@."
      c.Dset_intf.structure c.Dset_intf.keys c.Dset_intf.internals
      c.Dset_intf.leaves c.Dset_intf.sentinels c.Dset_intf.leaf_depth.d_mean
      c.Dset_intf.leaf_depth.d_p99 c.Dset_intf.max_depth;
    Format.printf
      "%-8s %8.1f bytes/key measured  (%d words measured, %d words \
       estimated)@."
      "" c.Dset_intf.bytes_per_key c.Dset_intf.measured_words
      c.Dset_intf.est_words
  in
  let census_json label census descent =
    Obs.Json.Obj
      (("structure", Obs.Json.Str label)
       ::
       (match census with
       | Some c -> [ ("census", Obs.Shape.to_json c) ]
       | None -> [ ("census", Obs.Json.Null) ])
      @ descent)
  in
  let run range seed probes data_dir json_path =
    let write_json doc =
      match json_path with
      | None -> ()
      | Some path ->
          Obs.Json.to_file path doc;
          Format.printf "analysis written to %s@." path
    in
    match data_dir with
    | Some dir -> (
        match Pstore.open_ ~dir ~universe:range ~mode:Pstore.Ephemeral () with
        | exception Failure m -> `Error (false, m)
        | store ->
            Format.printf "%a@." pp_recovery (Pstore.recovery_info store);
            let trie = Pstore.underlying store in
            (match Core.Patricia.census trie with
            | Some c ->
                pp_census c;
                write_json
                  (Obs.Json.Obj
                     [
                       ("schema", Obs.Json.Str "analyze/1");
                       ("range", Obs.Json.Int range);
                       ("data_dir", Obs.Json.Str dir);
                       ( "structures",
                         Obs.Json.Arr
                           [ census_json Core.Patricia.name (Some c) [] ] );
                     ])
            | None -> ());
            Format.print_flush ();
            `Ok ())
    | None ->
        (* The three structures the raw-speed question is about, all
           holding the same random half of the key range. *)
        let pat = Core.Patricia.create ~universe:range ~record_stats:true () in
        let vlk = Core.Patricia_vlk.create ~record_stats:true () in
        let kary = Kary.create ~universe:range ~record_stats:true () in
        let hex k = Printf.sprintf "%08x" k in
        let windows = 5 in
        let subjects =
          [
            ( Core.Patricia.name,
              Core.Patricia.insert pat,
              Core.Patricia.member pat,
              (fun () -> Core.Patricia.census pat),
              (fun () -> Core.Patricia.descent_stats pat),
              fun () -> Core.Patricia.descent_summary pat );
            ( Core.Patricia_vlk.name,
              (fun k -> Core.Patricia_vlk.insert vlk (hex k)),
              (fun k -> Core.Patricia_vlk.member vlk (hex k)),
              (fun () -> Core.Patricia_vlk.census vlk),
              (fun () -> Core.Patricia_vlk.descent_stats vlk),
              fun () -> Core.Patricia_vlk.descent_summary vlk );
            ( Kary.name,
              Kary.insert kary,
              Kary.member kary,
              (fun () -> Kary.census kary),
              (fun () -> Kary.descent_stats kary),
              fun () -> Kary.descent_summary kary );
          ]
        in
        (* Same half-full steady state as the harness prefill: a random
           half of the universe, in random order. *)
        let perm = Array.init range Fun.id in
        let rng = Rng.of_int_seed seed in
        for i = range - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let tmp = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- tmp
        done;
        Format.printf
          "structure forensics: range (0, %d), %d keys (half-full), seed %d, \
           %d member probes@."
          range (range / 2) seed probes;
        let results =
          List.map
            (fun (label, insert, member, census, dstats, dsummary) ->
              for i = 0 to (range / 2) - 1 do
                ignore (insert perm.(i))
              done;
              let delta before after key =
                match
                  (List.assoc_opt key before, List.assoc_opt key after)
                with
                | Some b, Some a -> a - b
                | _ -> 0
              in
              let d0 = Option.value ~default:[] (dstats ()) in
              let rng = Rng.of_int_seed (seed + 1) in
              (* The probe budget split into [windows] timed windows:
                 the median window is the figure, min-max its spread. *)
              let window_probes = max 1 (probes / windows) in
              let window_ns =
                List.init windows (fun _ ->
                    let t0 = Obs.Clock.now_ns () in
                    for _ = 1 to window_probes do
                      ignore (member (Rng.int rng range))
                    done;
                    float_of_int (Obs.Clock.now_ns () - t0)
                    /. float_of_int window_probes)
                |> List.sort Float.compare
              in
              let ns_median = List.nth window_ns (windows / 2) in
              let ns_min = List.hd window_ns in
              let ns_max = List.nth window_ns (windows - 1) in
              let d1 = Option.value ~default:[] (dstats ()) in
              let nodes = delta d0 d1 "descent_nodes_find" in
              let searches = delta d0 d1 "descent_searches" in
              let probe_mean =
                if searches > 0 then
                  float_of_int nodes /. float_of_int searches
                else 0.0
              in
              let c = census () in
              (match c with Some c -> pp_census c | None -> ());
              Format.printf
                "%-8s %8.1f ns/probe (min %.1f, max %.1f over %d windows)  \
                 %.2f nodes/search@.@."
                label ns_median ns_min ns_max windows probe_mean;
              ( label,
                c,
                [
                  ( "descent",
                    Obs.Json.Obj
                      [
                        ("probes", Obs.Json.Int (windows * window_probes));
                        ("windows", Obs.Json.Int windows);
                        ("ns_per_probe", Obs.Json.Float ns_median);
                        ("ns_per_probe_min", Obs.Json.Float ns_min);
                        ("ns_per_probe_max", Obs.Json.Float ns_max);
                        ("probe_mean_nodes", Obs.Json.Float probe_mean);
                        ( "depth",
                          match dsummary () with
                          | Some s -> Obs.Histogram.summary_to_json s
                          | None -> Obs.Json.Null );
                      ] );
                ] ))
            subjects
        in
        write_json
          (Obs.Json.Obj
             [
               ("schema", Obs.Json.Str "analyze/1");
               ("range", Obs.Json.Int range);
               ("seed", Obs.Json.Int seed);
               ("keys", Obs.Json.Int (range / 2));
               ( "structures",
                 Obs.Json.Arr
                   (List.map
                      (fun (label, c, descent) -> census_json label c descent)
                      results) );
             ]);
        Format.print_flush ();
        `Ok ()
  in
  let doc =
    "Structure forensics: shape census (node counts, depth and label \
     distributions, bytes per key) and single-thread descent cost for PAT, \
     PAT-VLK and 4-ST over the same seeded half-full key set — or the \
     census of a recovered --data-dir."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ range_arg $ seed_arg $ probes_arg $ data_dir_arg
       $ json_arg))

(* ------------------------------------------------------------------ *)
(* promote subcommand: failover — flip a follower to primary *)

let promote_cmd =
  let addr_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt int 7113 & info [ "port" ] ~doc:"Server port.")
  in
  let run addr port =
    match Server.Client.connect ~addr ~port () with
    | exception Unix.Unix_error (e, fn, _) ->
        `Error (false, Printf.sprintf "%s failed: %s" fn (Unix.error_message e))
    | c -> (
        match Server.Client.promote c with
        | true ->
            Server.Client.close c;
            Format.printf "promote: %s:%d is now a primary@." addr port;
            Format.print_flush ();
            `Ok ()
        | false ->
            Server.Client.close c;
            `Error (false, "server refused promotion")
        | exception Server.Client.Protocol_error m ->
            Server.Client.close c;
            `Error (false, "promote failed: " ^ m))
  in
  let doc =
    "Promote a running replication follower to primary: it detaches from \
     its stream, seals its WAL and flips through open-time recovery.  \
     Idempotent — promoting a primary succeeds without effect."
  in
  Cmd.v (Cmd.info "promote" ~doc) Term.(ret (const run $ addr_arg $ port_arg))

(* ------------------------------------------------------------------ *)
(* replicate subcommand: the cost of a copy — in-process primary plus
   0..N followers under load, async vs sync-ack, with convergence,
   verifiable-sync (root hash) and failover-time measurements.  This is
   the instrument behind EXPERIMENTS.md's "The cost of a copy". *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) -> ()

let replicate_cmd =
  let range_arg =
    Arg.(
      value & opt int 65_536
      & info [ "range" ] ~doc:"Key range (universe) of the replicated trie.")
  in
  let seconds_arg' =
    Arg.(value & opt float 5.0 & info [ "seconds" ] ~doc:"Load duration.")
  in
  let followers_arg =
    Arg.(
      value & opt int 1
      & info [ "followers" ] ~doc:"Followers attached to the primary (0..8).")
  in
  let sync_arg =
    let doc =
      "Sync-ack mode: client acknowledgements wait for every follower's \
       LOGACK (default: async, followers trail)."
    in
    Arg.(value & flag & info [ "sync" ] ~doc)
  in
  let seed_arg' =
    Arg.(value & opt int 2013 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let keep_arg =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the scratch data directories (default: \
                              delete them at exit).")
  in
  let run range seconds followers sync seed keep =
    if followers < 0 || followers > 8 then
      `Error (false, "replicate: --followers must be in 0..8")
    else begin
      let hash_width =
        let w = ref 0 in
        while 1 lsl !w < range do
          incr w
        done;
        !w
      in
      let base =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "patbench-replicate-%d" (Unix.getpid ()))
      in
      rm_rf base;
      let pdir = Filename.concat base "primary" in
      let fdir i = Filename.concat base (Printf.sprintf "follower%d" i) in
      let root_hash store =
        let trie = Pstore.underlying store in
        let fold ~lo ~hi ~init ~f =
          Core.Patricia.fold_range trie ~lo ~hi ~init ~f
        in
        Replica.Hash.range fold ~lo:0 ~hi:((1 lsl hash_width) - 1)
      in
      let pstore = Pstore.open_ ~dir:pdir ~universe:range ~mode:Pstore.Sync () in
      let writer = Option.get (Pstore.wal_writer pstore) in
      let prim = Replica.Primary.create ~dir:pdir ~writer ~sync_ack:sync () in
      Pstore.set_retention_hook pstore (Replica.Primary.retention_floor prim);
      let ops =
        Server.
          {
            insert = Pstore.insert pstore;
            delete = Pstore.delete pstore;
            member = Pstore.member pstore;
            replace = (fun ~remove ~add -> Pstore.replace pstore ~remove ~add);
            size = (fun () -> Pstore.size pstore);
            snapshot = (fun () -> Pstore.snapshot pstore);
            scan_cut = (fun () -> Pstore.scan_cut pstore);
          }
      in
      let barrier () =
        Pstore.barrier pstore;
        Replica.Primary.wait_acked prim (Pstore.last_logged_here pstore)
      in
      let repl =
        Server.
          {
            subscribe = Replica.Primary.subscribe prim;
            hashcheck =
              (fun ~prefix ~len ->
                let trie = Pstore.underlying pstore in
                let fold ~lo ~hi ~init ~f =
                  Core.Patricia.fold_range trie ~lo ~hi ~init ~f
                in
                Replica.Hash.hashes fold ~width:hash_width ~prefix ~len);
            promote = (fun () -> Result.Ok ());
          }
      in
      let srv = Server.start ~port:0 ~domains:2 ~barrier ~repl ops in
      let port = Server.port srv in
      let fstores =
        List.init followers (fun i ->
            Pstore.open_ ~dir:(fdir i) ~universe:range ~mode:Pstore.Sync ())
      in
      let fls =
        List.mapi
          (fun i st ->
            let fops =
              Replica.Follower.
                {
                  apply_insert = (fun k -> ignore (Pstore.insert st k : bool));
                  apply_delete = (fun k -> ignore (Pstore.delete st k : bool));
                  wal_sync =
                    (fun () ->
                      match Pstore.wal_writer st with
                      | Some w ->
                          let last = Pstore.last_logged_here st in
                          if last >= 0 then Persist.Wal.Writer.wait_durable w last
                      | None -> ());
                }
            in
            match
              Replica.Follower.start ~port ~from_seq:0
                ~watermark_dir:(fdir i) fops
            with
            | Result.Ok f -> f
            | Result.Error msg ->
                failwith (Printf.sprintf "follower %d: %s" i msg))
          fstores
      in
      Format.printf
        "replicate: %d follower(s), %s acks, range (0, %d), %.1fs load@."
        followers
        (if sync then "sync (wait for LOGACK)" else "async")
        range seconds;
      Format.print_flush ();
      (* Lag sampler: peak and mean primary-side lag during the load —
         the steady-state number the experiment is after. *)
      let sampling = Atomic.make true in
      let peak_lag = Atomic.make 0 in
      let lag_sum = Atomic.make 0 in
      let lag_n = Atomic.make 0 in
      let sampler =
        Domain.spawn (fun () ->
            while Atomic.get sampling do
              let l = Replica.Primary.lag_records prim in
              if l > Atomic.get peak_lag then Atomic.set peak_lag l;
              ignore (Atomic.fetch_and_add lag_sum l);
              ignore (Atomic.fetch_and_add lag_n 1);
              Unix.sleepf 0.01
            done)
      in
      let prefilled =
        Server.Loadgen.prefill ~addr:"127.0.0.1" ~port ~universe:range ~seed ()
      in
      let cfg =
        Server.Loadgen.
          {
            addr = "127.0.0.1";
            port;
            domains = 4;
            depth = 16;
            seconds;
            mix = Harness.Mix.v ~insert:10 ~delete:10 ~find:0 ~replace:80 ();
            universe = range;
            dist = Harness.Uniform;
            seed;
            journal = false;
            tolerate_disconnect = false;
            partition = false;
            scrape_port = None;
            scan_every = 0;
            scan_count = 256;
          }
      in
      let r = Server.Loadgen.run cfg in
      Atomic.set sampling false;
      Domain.join sampler;
      let l = r.Server.Loadgen.latency in
      Format.printf
        "replicate: prefill %d, %d ops in %.2fs = %.0f ops/s, %d errors@.\
         replicate: ack latency ns p50=%d p99=%d max=%d@."
        prefilled r.Server.Loadgen.ops r.Server.Loadgen.elapsed_s
        r.Server.Loadgen.throughput r.Server.Loadgen.errors l.Obs.Histogram.p50
        l.Obs.Histogram.p99 l.Obs.Histogram.max;
      (if followers > 0 then
         let mean =
           if Atomic.get lag_n > 0 then
             float_of_int (Atomic.get lag_sum) /. float_of_int (Atomic.get lag_n)
           else 0.0
         in
         Format.printf
           "replicate: steady-state lag mean %.1f records, peak %d records@."
           mean (Atomic.get peak_lag));
      (* Convergence: how long after the last acked write until every
         follower has applied the whole history. *)
      let head = Persist.Wal.Writer.last_assigned writer in
      let t0 = Obs.Clock.now_ns () in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec settle () =
        if
          List.for_all (fun f -> Replica.Follower.applied_seq f >= head) fls
          || Unix.gettimeofday () >= deadline
        then ()
        else begin
          Unix.sleepf 0.001;
          settle ()
        end
      in
      settle ();
      let converge_ms =
        float_of_int (Obs.Clock.now_ns () - t0) /. 1e6
      in
      List.iter
        (fun f ->
          match Replica.Follower.failure f with
          | Some m -> failwith ("follower failed: " ^ m)
          | None -> ())
        fls;
      if followers > 0 then
        Format.printf "replicate: convergence after last ack: %.1f ms@."
          converge_ms;
      (* Verifiable sync: equal key sets must hash equal (the trie is
         history-independent, so this is exactly set equality). *)
      let ph = root_hash pstore in
      let psize = Pstore.size pstore in
      let all_equal =
        List.for_all2
          (fun st _ -> root_hash st = ph && Pstore.size st = psize)
          fstores fls
      in
      Format.printf "replicate: primary %d keys, root hash %x; %s@." psize ph
        (if followers = 0 then "no followers to compare"
         else if all_equal then
           Printf.sprintf "all %d follower(s) hash-identical" followers
         else "FOLLOWER DIVERGENCE — root hashes differ");
      (* Failover budget: detach follower 0, seal its WAL, reopen via
         recovery — the exact PROMOTE path — and time it. *)
      let failover_ms =
        match (fls, fstores) with
        | f :: _, st :: _ ->
            let t0 = Obs.Clock.now_ns () in
            Replica.Follower.stop f;
            Pstore.close st;
            let promoted =
              Pstore.open_ ~dir:(fdir 0) ~universe:range ~mode:Pstore.Sync ()
            in
            let ms = float_of_int (Obs.Clock.now_ns () - t0) /. 1e6 in
            let ok = Pstore.size promoted = psize && root_hash promoted = ph in
            Pstore.close promoted;
            Format.printf
              "replicate: failover (seal + open-time recovery): %.1f ms, \
               promoted state %s@."
              ms
              (if ok then "identical to primary" else "DIVERGED");
            if not ok then failwith "promoted follower diverged from primary";
            Some ms
        | _ -> None
      in
      ignore (failover_ms : float option);
      (* Teardown: remaining followers, server, primary, stores. *)
      List.iteri (fun i f -> if i > 0 then Replica.Follower.stop f) fls;
      Server.stop ~drain_s:0.5 srv;
      Replica.Primary.stop prim;
      Pstore.close pstore;
      List.iteri (fun i st -> if i > 0 then Pstore.close st) fstores;
      if not keep then rm_rf base
      else Format.printf "replicate: data kept under %s@." base;
      Format.print_flush ();
      if followers > 0 && not all_equal then
        `Error (false, "follower divergence detected")
      else `Ok ()
    end
  in
  let doc =
    "Measure the cost of a copy: run a pipelined load against an in-process \
     replicated primary with 0..N followers (async or --sync acks), report \
     throughput, steady-state and convergence lag, verify the replicas \
     hash-identical, and time the failover (promotion) path."
  in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      ret
        (const run $ range_arg $ seconds_arg' $ followers_arg $ sync_arg
       $ seed_arg' $ keep_arg))

(* ------------------------------------------------------------------ *)
(* scan subcommand: what a frozen view costs — snapshot cost vs trie
   size (the O(1) claim), scan goodput vs range width, and writer
   throughput with a continuous scanner attached (the copy-on-descent
   overhead on the write path).  In-process measurements of lib/core's
   snapshot machinery; the served SCAN path is exercised by
   `load --scan-every`, and `figure --id scan` gates three of these
   measurements against the committed baseline. *)

let scan_cmd =
  let universe_arg =
    let doc = "Key universe; the trie is prefilled to half of it." in
    Arg.(value & opt int 65_536 & info [ "universe" ] ~doc)
  in
  let widths_arg =
    let doc = "Comma-separated range widths for the goodput sweep." in
    Arg.(value & opt (list int) [ 1_024; 8_192; 65_536 ] & info [ "widths" ] ~doc)
  in
  let writers_arg =
    let doc = "Churning writer domains attached during the measurements." in
    Arg.(value & opt int 2 & info [ "writers" ] ~doc)
  in
  let run universe widths writers seconds trials seed csv =
    if universe < 2 then `Error (false, "--universe must be at least 2")
    else if writers < 1 then `Error (false, "--writers must be at least 1")
    else if trials < 1 then `Error (false, "--trials must be at least 1")
    else begin
      let prefilled () = scan_prefilled ~universe seed in
      let samples ~bg ~scanner t step =
        List.init trials (fun _ ->
            scan_rate ~universe ~seconds ~seed ~bg ~scanner t step)
      in
      let csv_rows = ref [] in
      let report name xs unit_ =
        let { Harness.mean; stddev; _ } = Harness.mean_stddev xs in
        Printf.printf "  %-44s %14.1f ±%10.1f %s\n%!" name mean stddev unit_;
        csv_rows := (name, mean, stddev) :: !csv_rows
      in
      Printf.printf
        "What a frozen view costs (universe %d, %d writer domain(s), %.1fs × \
         %d trials)\n"
        universe writers seconds trials;
      (* 1. Snapshot cost: O(1) in the number of keys, so empty vs
         half-full must land in the same ballpark; churn adds only the
         cost of resolving in-flight descriptors. *)
      Printf.printf "\nSnapshot cost (ns per snapshot):\n";
      let ns rates = List.map (fun r -> 1e9 /. r) rates in
      let empty = Core.Patricia.create ~universe () in
      report "empty trie, quiesced"
        (ns (samples ~bg:0 ~scanner:false empty (snapshot_step empty)))
        "ns";
      let t = prefilled () in
      report
        (Printf.sprintf "%d keys, quiesced" (Core.Patricia.size t))
        (ns (samples ~bg:0 ~scanner:false t (snapshot_step t)))
        "ns";
      report
        (Printf.sprintf "%d keys, %d writers churning" (Core.Patricia.size t)
           writers)
        (ns (samples ~bg:writers ~scanner:false t (snapshot_step t)))
        "ns";
      (* 2. Goodput vs range width: each step freezes a fresh view and
         folds [0, width) out of it while the writers churn. *)
      Printf.printf "\nScan goodput under churn (keys streamed per second):\n";
      List.iter
        (fun w ->
          let w = min w universe in
          let step () =
            let v = Core.Patricia.snapshot t in
            float_of_int
              (Core.Patricia.View.fold_range v ~lo:0 ~hi:(w - 1) ~init:0
                 ~f:(fun n _ -> n + 1))
          in
          report
            (Printf.sprintf "width %d" w)
            (samples ~bg:writers ~scanner:false t step)
            "keys/s")
        widths;
      (* 3. The write path's side of the bargain: one measured writer
         (plus --writers-1 background ones) with and without a
         continuous whole-view scanner attached. *)
      Printf.printf "\nWriter throughput (measured domain, ops/s):\n";
      let writer_step = writer_step ~universe ~seed in
      let quiet =
        let t = prefilled () in
        samples ~bg:(writers - 1) ~scanner:false t (writer_step t)
      in
      let scanned =
        let t = prefilled () in
        samples ~bg:(writers - 1) ~scanner:true t (writer_step t)
      in
      report "no scanner" quiet "ops/s";
      report "continuous scanner attached" scanned "ops/s";
      let mq = (Harness.mean_stddev quiet).Harness.mean in
      let ms = (Harness.mean_stddev scanned).Harness.mean in
      if mq > 0.0 then
        Printf.printf "  scanner overhead on the write path: %.1f%%\n"
          ((1.0 -. (ms /. mq)) *. 100.0);
      if csv then begin
        Printf.printf "\ndatapoint,mean,stddev\n";
        List.iter
          (fun (n, m, s) -> Printf.printf "%S,%f,%f\n" n m s)
          (List.rev !csv_rows)
      end;
      `Ok ()
    end
  in
  let doc =
    "Measure what a frozen view costs: snapshot latency vs trie size (the \
     O(1) claim), scan goodput vs range width under writer churn, and \
     writer throughput with a continuous scanner attached."
  in
  Cmd.v (Cmd.info "scan" ~doc)
    Term.(
      ret
        (const run $ universe_arg $ widths_arg $ writers_arg $ seconds_arg
       $ trials_arg $ seed_arg $ csv_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "Benchmarks for the non-blocking Patricia trie reproduction (ICDCS 2013)."
  in
  let info = Cmd.info "patbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figure_cmd;
            extra_cmd;
            custom_cmd;
            ablation_cmd;
            serve_cmd;
            load_cmd;
            recover_cmd;
            analyze_cmd;
            promote_cmd;
            replicate_cmd;
            scan_cmd;
          ]))
