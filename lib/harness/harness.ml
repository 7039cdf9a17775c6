(** Concurrent-set benchmark harness reproducing the methodology of the
    paper's Section V:

    - operation mixes are given as percentages (e.g. i5-d5-f90);
    - keys are drawn uniformly from a range, or non-uniformly as runs of
      50 consecutive keys from a random starting point;
    - each data point is the mean of several timed trials on a structure
      prefilled to half-full, after a warm-up run; the standard deviation
      is reported (the paper's error bars);
    - throughput is total completed operations per second across all
      threads (OCaml domains). *)

(** Operation mix in percent; must sum to 100. *)
module Mix = struct
  type t = { insert : int; delete : int; find : int; replace : int }

  let v ?(insert = 0) ?(delete = 0) ?(find = 0) ?(replace = 0) () =
    if insert + delete + find + replace <> 100 then
      invalid_arg "Mix.v: percentages must sum to 100";
    { insert; delete; find; replace }

  let i5_d5_f90 = v ~insert:5 ~delete:5 ~find:90 ()
  let i50_d50_f0 = v ~insert:50 ~delete:50 ()
  let i15_d15_f70 = v ~insert:15 ~delete:15 ~find:70 ()
  let i10_d10_r80 = v ~insert:10 ~delete:10 ~replace:80 ()

  let to_string m =
    let parts =
      List.filter
        (fun (_, p) -> p > 0)
        [ ("i", m.insert); ("d", m.delete); ("f", m.find); ("r", m.replace) ]
    in
    String.concat "-" (List.map (fun (n, p) -> Printf.sprintf "%s%d" n p) parts)
end

(** Key distribution: uniform over the range, or the paper's non-uniform
    workload — operations on runs of [run_length] consecutive keys
    starting from a random key (Section V uses 50). *)
type distribution = Uniform | Clustered of int

type workload = {
  universe : int;
  mix : Mix.t;
  dist : distribution;
}

type config = {
  threads : int;
  seconds : float; (* length of each timed trial *)
  trials : int;
  warmup_seconds : float;
  seed : int;
}

let default_config =
  { threads = 4; seconds = 1.0; trials = 3; warmup_seconds = 0.3; seed = 2013 }

(** The operations of one structure instance, as closures so the runner is
    agnostic to the concrete module (and to whether replace exists).
    [stats], when present, snapshots the structure's internal contention
    counters (cumulative since creation); the runner diffs snapshots
    around the timed window. *)
type ops = {
  insert : int -> bool;
  delete : int -> bool;
  member : int -> bool;
  replace : (int -> int -> bool) option; (* remove add *)
  stats : (unit -> (string * int) list) option;
}

type datapoint = {
  mean : float; (* ops per second *)
  stddev : float;
  samples : float list;
}

(* Deltas of [Gc.quick_stat] around the timed window.  quick_stat is
   cheap and never stops the world, at the price of per-domain fields
   ([minor_words], [promoted_words]) reflecting mostly the coordinating
   domain; the collection counts and major words are global.  Good
   enough to spot an allocation regression between two runs of the same
   benchmark, which is what the metrics files are for. *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_delta_between (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

let gc_delta_add x y =
  {
    minor_words = x.minor_words +. y.minor_words;
    promoted_words = x.promoted_words +. y.promoted_words;
    major_words = x.major_words +. y.major_words;
    minor_collections = x.minor_collections + y.minor_collections;
    major_collections = x.major_collections + y.major_collections;
  }

let gc_delta_zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
  }

(** Everything one timed trial can report beyond raw throughput. *)
type trial_metrics = {
  ops_per_sec : float;
  latency : Obs.Histogram.summary option;
      (* per-operation latency over the timed window, all domains *)
  counters : (string * int) list;
      (* structure-internal counter deltas over the timed window *)
  gc : gc_delta;
}

(* ------------------------------------------------------------------ *)
(* Live telemetry: the state behind the scrape endpoint (Obs.Serve).

   The run loops below bump a striped ops counter and (on the latency
   path) a sharded histogram whenever live mode is on; the [prometheus]
   producer renders those together with the retry attribution, chaos
   crossings, trace-ring drops, trie-internal counters and GC state into
   one text exposition.  Same hot-path discipline as everything else in
   this file: live mode off costs one atomic load and an untaken branch
   per operation. *)

module Live = struct
  let active = Atomic.make false
  let ops_done = Obs.Counter.create ()
  let latency = Obs.Histogram.create ()
  let started_ns = ref 0

  (* The current structure's cumulative counter snapshot function
     ([ops.stats] of the instance under test), registered by the trial
     runner so a scrape can expose trie-internal counters.  Read only on
     scrape. *)
  let stats_source : (unit -> (string * int) list) option Atomic.t =
    Atomic.make None

  let set_stats_source f = Atomic.set stats_source f

  (* Extra metric producers appended to the exposition — how the
     patserve server, the durability layer, the runtime-events
     collector and the watchdog (none of which this library may depend
     on) get their families into the same scrape.  [set_extra_producer]
     replaces the whole list (the pre-existing single-producer API);
     [add_extra_producer] appends, so independent subsystems can
     register without knowing about each other. *)
  let extra_producers : (Obs.Prometheus.t -> unit) list Atomic.t =
    Atomic.make []

  let set_extra_producer = function
    | Some f -> Atomic.set extra_producers [ f ]
    | None -> Atomic.set extra_producers []

  let add_extra_producer f =
    let rec go () =
      let cur = Atomic.get extra_producers in
      if not (Atomic.compare_and_set extra_producers cur (cur @ [ f ])) then
        go ()
    in
    go ()

  let clear_extra_producers () = Atomic.set extra_producers []

  let set_enabled b =
    if b && not (Atomic.get active) then begin
      Obs.Counter.reset ops_done;
      Obs.Histogram.reset latency;
      started_ns := Obs.Clock.now_ns ()
    end;
    Atomic.set active b

  let enabled () = Atomic.get active

  (* Count one completed operation; [op] also records its latency. *)
  let[@inline] tick () = if Atomic.get active then Obs.Counter.incr ops_done

  let[@inline] op ns =
    if Atomic.get active then begin
      Obs.Counter.incr ops_done;
      Obs.Histogram.record latency ns
    end

  let prometheus () =
    let b = Obs.Prometheus.create () in
    let open Obs.Prometheus in
    gauge b ~name:"repro_up" ~help:"Benchmark process is serving metrics" 1.0;
    gauge b ~name:"repro_uptime_seconds"
      ~help:"Seconds since live telemetry was enabled"
      (float_of_int (Obs.Clock.now_ns () - !started_ns) /. 1e9);
    counter b ~name:"repro_ops_total"
      ~help:"Operations completed by benchmark workers since live start"
      (float_of_int (Obs.Counter.sum ops_done));
    histogram_summary b ~name:"repro_op_latency_ns"
      ~help:"Per-operation latency over the live window, nanoseconds"
      (Obs.Histogram.snapshot latency);
    (* Two passes: the exposition format wants each metric family's
       samples contiguous, so all cause counters come before all
       attempt-depth summaries. *)
    let attribution = Obs.Attribution.snapshot () in
    List.iter
      (fun (s : Obs.Attribution.summary) ->
        counter b ~name:"repro_retry_cause_total"
          ~help:"Update-attempt retries by cause"
          ~labels:[ ("cause", s.Obs.Attribution.name) ]
          (float_of_int s.Obs.Attribution.count))
      attribution;
    List.iter
      (fun (s : Obs.Attribution.summary) ->
        histogram_summary b ~name:"repro_retry_attempt_depth"
          ~help:"Attempt number at which each retry cause struck"
          ~labels:[ ("cause", s.Obs.Attribution.name) ]
          s.Obs.Attribution.attempts)
      attribution;
    histogram_summary b ~name:"repro_help_chain_depth"
      ~help:"Foreign descriptors helped per completed operation"
      (Obs.Attribution.help_depth_summary ());
    (match Obs.Trace.recorder () with
    | Some tr ->
        counter b ~name:"repro_trace_dropped_events_total"
          ~help:"Flight-recorder events lost to ring overwrites"
          (float_of_int (Obs.Trace.dropped tr))
    | None -> ());
    List.iter
      (fun (site, n) ->
        counter b ~name:"repro_chaos_crossings_total"
          ~help:"Chaos injection-site crossings"
          ~labels:[ ("site", site) ]
          (float_of_int n))
      (Chaos.site_crossings ());
    (match Atomic.get stats_source with
    | Some f ->
        List.iter
          (fun (n, v) ->
            counter b
              ~name:("repro_trie_" ^ n ^ "_total")
              ~help:"Trie-internal contention counter (cumulative)"
              (float_of_int v))
          (f ())
    | None -> ());
    List.iter (fun f -> f b) (Atomic.get extra_producers);
    let g = Gc.quick_stat () in
    gauge b ~name:"repro_gc_minor_collections"
      ~help:"Cumulative minor collections"
      (float_of_int g.Gc.minor_collections);
    gauge b ~name:"repro_gc_major_collections"
      ~help:"Cumulative major collections"
      (float_of_int g.Gc.major_collections);
    gauge b ~name:"repro_gc_minor_words" ~help:"Cumulative minor words"
      g.Gc.minor_words;
    gauge b ~name:"repro_gc_major_words" ~help:"Cumulative major words"
      g.Gc.major_words;
    gauge b ~name:"repro_gc_heap_words" ~help:"Major heap size in words"
      (float_of_int g.Gc.heap_words);
    to_string b
end

let mean_stddev samples =
  let n = float_of_int (List.length samples) in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. n
  in
  { mean; stddev = sqrt var; samples }

(* ------------------------------------------------------------------ *)
(* Key generators *)

let key_stream dist universe rng =
  match dist with
  | Uniform -> fun () -> Rng.int rng universe
  | Clustered run_length ->
      let base = ref (Rng.int rng universe) in
      let off = ref 0 in
      fun () ->
        if !off >= run_length then begin
          base := Rng.int rng universe;
          off := 0
        end;
        let k = (!base + !off) mod universe in
        incr off;
        k

(* ------------------------------------------------------------------ *)
(* One timed trial *)

let run_loop ?latency ops workload stop rng =
  let next_key = key_stream workload.dist workload.universe rng in
  let m = workload.mix in
  let t_ins = m.Mix.insert in
  let t_del = t_ins + m.Mix.delete in
  let t_find = t_del + m.Mix.find in
  let do_op r k =
    if r < t_ins then ignore (ops.insert k)
    else if r < t_del then ignore (ops.delete k)
    else if r < t_find then ignore (ops.member k)
    else begin
      match ops.replace with
      | Some replace -> ignore (replace k (next_key ()))
      | None -> ignore (ops.member k)
    end
  in
  let count = ref 0 in
  (* Two loop bodies so the un-instrumented path pays no clock reads and
     no option test per operation. *)
  (match latency with
  | None ->
      while not (Atomic.get stop) do
        let r = Rng.int rng 100 in
        let k = next_key () in
        do_op r k;
        Live.tick ();
        incr count
      done
  | Some hist ->
      while not (Atomic.get stop) do
        let r = Rng.int rng 100 in
        let k = next_key () in
        let t0 = Obs.Clock.now_ns () in
        do_op r k;
        let dt = Obs.Clock.now_ns () - t0 in
        Obs.Histogram.record hist dt;
        Live.op dt;
        incr count
      done);
  !count

(* Prefill to half-full: insert a uniformly random half of the universe
   in random order — the steady state of the paper's i50-d50 prefill run.
   Insertion order matters: a sorted sweep would degenerate the
   non-rebalancing trees (BST, 4-ST) into linear lists and bias every
   measurement, which is why the paper prefills with random updates. *)
let prefill ops universe rng =
  let perm = Array.init universe Fun.id in
  for i = universe - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  for i = 0 to (universe / 2) - 1 do
    ignore (ops.insert perm.(i))
  done

let counters_of ops = match ops.stats with Some f -> f () | None -> []

(* Delta of two cumulative counter snapshots, keyed by the first. *)
let counter_deltas before after =
  List.map
    (fun (name, v0) ->
      match List.assoc_opt name after with
      | Some v1 -> (name, v1 - v0)
      | None -> (name, 0))
    before

(* One prefill + warm-up + timed trial.  Returns the trial's metrics and
   the latency histogram (when [record_latency]) so callers can merge
   histograms across trials for whole-datapoint percentiles. *)
let run_trial_full ?(record_latency = false) ~make_ops workload config
    trial_idx =
  let ops = make_ops () in
  (* Let a live scrape see this instance's internal counters.  Once per
     trial, not per operation, so no gating needed. *)
  (match ops.stats with Some _ -> Live.set_stats_source ops.stats | None -> ());
  let rng = Rng.of_int_seed (config.seed + (trial_idx * 7919)) in
  prefill ops workload.universe rng;
  let run_phase ?latency seconds =
    let stop = Atomic.make false in
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let worker d =
      Domain.spawn (fun () ->
          let rng = Rng.of_int_seed (config.seed + (trial_idx * 7919) + (d * 104729) + 1) in
          Atomic.incr ready;
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          run_loop ?latency ops workload stop rng)
    in
    let domains = List.init config.threads worker in
    (* Start barrier with a deadline: a worker that dies before checking
       in (OOM, uncaught exception in spawn) must fail the trial with a
       diagnostic, not wedge the whole benchmark in a silent spin. *)
    if
      not
        (Chaos.Backoff.wait_until ~timeout_s:30.0 (fun () ->
             Atomic.get ready >= config.threads))
    then begin
      (* Unblock any workers that did park on the barrier so they exit,
         then fail loudly.  Domains that never reached the barrier cannot
         be joined safely, so we don't try. *)
      Atomic.set go true;
      Atomic.set stop true;
      failwith
        (Printf.sprintf
           "harness: start barrier timed out after 30s: %d of %d workers \
            checked in"
           (Atomic.get ready) config.threads)
    end;
    let t0 = Unix.gettimeofday () in
    Atomic.set go true;
    Unix.sleepf seconds;
    Atomic.set stop true;
    let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
    let elapsed = Unix.gettimeofday () -. t0 in
    float_of_int total /. elapsed
  in
  if config.warmup_seconds > 0.0 then ignore (run_phase config.warmup_seconds);
  (* Latency, counters and GC are all measured over the timed window
     only: the histogram is created after warm-up and the cumulative
     counters are diffed around the phase. *)
  let hist = if record_latency then Some (Obs.Histogram.create ()) else None in
  let counters0 = counters_of ops in
  let gc0 = Gc.quick_stat () in
  let ops_per_sec = run_phase ?latency:hist config.seconds in
  let gc1 = Gc.quick_stat () in
  let counters1 = counters_of ops in
  ( {
      ops_per_sec;
      latency = Option.map Obs.Histogram.snapshot hist;
      counters = counter_deltas counters0 counters1;
      gc = gc_delta_between gc0 gc1;
    },
    hist )

(** A whole data point with observability: the throughput statistics of
    [run] plus per-trial metrics, the latency summary of all trials'
    samples merged, and counter/GC totals across trials. *)
type datapoint_full = {
  dp : datapoint;
  trial_metrics : trial_metrics list;
  latency : Obs.Histogram.summary option;
  counters : (string * int) list;
  gc : gc_delta;
}

let run_full ?(record_latency = false) ~make_ops workload config =
  let combined =
    if record_latency then Some (Obs.Histogram.create ()) else None
  in
  let trial_metrics =
    List.init config.trials (fun i ->
        let m, h =
          run_trial_full ~record_latency ~make_ops workload config i
        in
        (match (combined, h) with
        | Some into, Some h -> Obs.Histogram.merge_into ~into h
        | _ -> ());
        m)
  in
  let dp = mean_stddev (List.map (fun m -> m.ops_per_sec) trial_metrics) in
  let counters =
    match trial_metrics with
    | [] -> []
    | (first : trial_metrics) :: rest ->
        List.fold_left
          (fun acc (m : trial_metrics) ->
            List.map
              (fun (name, v) ->
                (name, v + Option.value ~default:0 (List.assoc_opt name m.counters)))
              acc)
          first.counters rest
  in
  let gc =
    List.fold_left
      (fun acc (m : trial_metrics) -> gc_delta_add acc m.gc)
      gc_delta_zero trial_metrics
  in
  {
    dp;
    trial_metrics;
    latency = Option.map Obs.Histogram.snapshot combined;
    counters;
    gc;
  }

let run ~make_ops workload config = (run_full ~make_ops workload config).dp

(* ------------------------------------------------------------------ *)
(* The six structures of the paper's evaluation, packaged uniformly. *)

type subject = { label : string; make : universe:int -> ops }

let pat_subject =
  {
    label = Core.Patricia.name;
    make =
      (fun ~universe ->
        let t = Core.Patricia.create ~universe () in
        {
          insert = Core.Patricia.insert t;
          delete = Core.Patricia.delete t;
          member = Core.Patricia.member t;
          replace =
            Some (fun remove add -> Core.Patricia.replace t ~remove ~add);
          stats = None;
        });
  }

let bst_subject =
  {
    label = Nbbst.name;
    make =
      (fun ~universe ->
        let t = Nbbst.create ~universe () in
        {
          insert = Nbbst.insert t;
          delete = Nbbst.delete t;
          member = Nbbst.member t;
          replace = None;
          stats = None;
        });
  }

let kary_subject =
  {
    label = Kary.name;
    make =
      (fun ~universe ->
        let t = Kary.create ~universe () in
        {
          insert = Kary.insert t;
          delete = Kary.delete t;
          member = Kary.member t;
          replace = None;
          stats = None;
        });
  }

let skiplist_subject =
  {
    label = Skiplist.name;
    make =
      (fun ~universe ->
        let t = Skiplist.create ~universe () in
        {
          insert = Skiplist.insert t;
          delete = Skiplist.delete t;
          member = Skiplist.member t;
          replace = None;
          stats = None;
        });
  }

let avl_subject =
  {
    label = Avl.name;
    make =
      (fun ~universe ->
        let t = Avl.create ~universe () in
        {
          insert = Avl.insert t;
          delete = Avl.delete t;
          member = Avl.member t;
          replace = None;
          stats = None;
        });
  }

let ctrie_subject =
  {
    label = Ctrie.name;
    make =
      (fun ~universe ->
        let t = Ctrie.create ~universe () in
        {
          insert = Ctrie.insert t;
          delete = Ctrie.delete t;
          member = Ctrie.member t;
          replace = None;
          stats = None;
        });
  }

(** PAT with its internal contention counters enabled (per-domain
    sharded, so the counters do not serialize the hot path).  Used when
    a metrics file is requested; the plain {!pat_subject} stays
    completely uninstrumented for like-for-like figure reproduction. *)
let pat_subject_stats =
  {
    label = Core.Patricia.name;
    make =
      (fun ~universe ->
        let t = Core.Patricia.create ~universe ~record_stats:true () in
        {
          insert = Core.Patricia.insert t;
          delete = Core.Patricia.delete t;
          member = Core.Patricia.member t;
          replace =
            Some (fun remove add -> Core.Patricia.replace t ~remove ~add);
          stats =
            Some
              (fun () ->
                match Core.Patricia.stats_snapshot t with
                | Some s -> Core.Patricia.stats_to_alist s
                | None -> []);
        });
  }

(** In the order the paper's legends list them. *)
let all_subjects =
  [
    pat_subject;
    kary_subject;
    bst_subject;
    avl_subject;
    skiplist_subject;
    ctrie_subject;
  ]

let run_subject subject workload config =
  run ~make_ops:(fun () -> subject.make ~universe:workload.universe) workload config

let run_subject_full ?record_latency subject workload config =
  run_full ?record_latency
    ~make_ops:(fun () -> subject.make ~universe:workload.universe)
    workload config

(* ------------------------------------------------------------------ *)
(* Metrics-file assembly: one JSON object per (structure, workload,
   threads) data point — the schema documented in EXPERIMENTS.md under
   "Observability" and validated by test/validate_metrics.ml. *)

let dist_string = function
  | Uniform -> "uniform"
  | Clustered n -> Printf.sprintf "clustered-%d" n

let gc_delta_to_json (g : gc_delta) =
  Obs.Json.Obj
    [
      ("minor_words", Obs.Json.Float g.minor_words);
      ("promoted_words", Obs.Json.Float g.promoted_words);
      ("major_words", Obs.Json.Float g.major_words);
      ("minor_collections", Obs.Json.Int g.minor_collections);
      ("major_collections", Obs.Json.Int g.major_collections);
    ]

(* Mean descent depth over a timed window, derived from the cumulative
   descent counters when the subject records them: nodes visited across
   all opcodes divided by completed searches. *)
let descent_mean counters =
  match List.assoc_opt "descent_searches" counters with
  | Some searches when searches > 0 ->
      let prefix = "descent_nodes_" in
      let plen = String.length prefix in
      let nodes =
        List.fold_left
          (fun acc (n, v) ->
            if String.length n >= plen && String.sub n 0 plen = prefix then
              acc + v
            else acc)
          0 counters
      in
      Some (float_of_int nodes /. float_of_int searches)
  | _ -> None

let datapoint_full_to_json ~section ~label workload ~threads
    (full : datapoint_full) =
  let open Obs.Json in
  Obj
    [
      ("figure", Str section);
      ("structure", Str label);
      ("mix", Str (Mix.to_string workload.mix));
      ("distribution", Str (dist_string workload.dist));
      ("universe", Int workload.universe);
      ("threads", Int threads);
      ("trials", Int (List.length full.dp.samples));
      ("throughput_mean_ops_s", Float full.dp.mean);
      ("throughput_stddev_ops_s", Float full.dp.stddev);
      ( "throughput_samples_ops_s",
        Arr (List.map (fun s -> Float s) full.dp.samples) );
      ( "latency",
        match full.latency with
        | Some s -> Obs.Histogram.summary_to_json s
        | None -> Null );
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) full.counters));
      ( "descent_mean_nodes",
        match descent_mean full.counters with Some m -> Float m | None -> Null
      );
      ("gc", gc_delta_to_json full.gc);
    ]

(* ------------------------------------------------------------------ *)
(* Figure-style reporting *)

let pp_series fmt ~title ~threads_list (rows : (string * datapoint list) list) =
  Format.fprintf fmt "## %s@." title;
  Format.fprintf fmt "%-8s" "threads";
  List.iter (fun t -> Format.fprintf fmt "%14d" t) threads_list;
  Format.fprintf fmt "@.";
  List.iter
    (fun (label, points) ->
      Format.fprintf fmt "%-8s" label;
      List.iter (fun p -> Format.fprintf fmt "%14.0f" p.mean) points;
      Format.fprintf fmt "@.";
      Format.fprintf fmt "%-8s" "  ±";
      List.iter (fun p -> Format.fprintf fmt "%14.0f" p.stddev) points;
      Format.fprintf fmt "@.")
    rows
