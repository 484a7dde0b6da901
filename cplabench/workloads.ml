(* The three workloads: set-up, the measured run, and the metrics of each. *)

open Cpla_route

type size = Full | Tiny  (** Tiny: seconds-long inputs for the self-test *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  dir : string;  (** scratch directory for generated inputs and daemon output *)
  cpla : string;  (** the `cpla` binary (daemon-mix) *)
  log : string -> unit;
  corrupt : Flow.corruption option;  (** self-test: break every job's result before the checks *)
}

(* Set-up is repeated (at least 3 times and for at least a second, at most
   25 times) and the median of its CPU seconds reported, so that work moved
   into set-up shows; only the last repetition's state is kept, and the
   heap is compacted before each, so peak memory does not hang on when the
   collector freed the last one.  CPU, not wall, time: on a shared host
   wall time also counts the time other tenants held the cores.  Each
   repetition is scaled by kernel samples taken right around it.
   [child_cpu] adds the CPU seconds of the processes a set-up started (the
   daemon). *)
let repeated_setup ?(child_cpu = fun _ -> 0.0) ~host ~discard setup =
  let rec go n wall times last before =
    if n >= 3 && (wall >= 1.0 || n >= 25) then (Option.get last, Report.median times)
    else begin
      Option.iter discard last;
      Gc.compact ();
      let watch = Cpla_util.Timer.wall () and cpu = Cpla_util.Timer.start () in
      let x = setup () in
      let t = Cpla_util.Timer.elapsed_s cpu +. child_cpu x in
      let wall = wall +. Cpla_util.Timer.elapsed_s watch in
      let after = Calib.take host 2 in
      go (n + 1) wall ((t *. Calib.scale_between host before after) :: times) (Some x) after
    end
  in
  go 0 0.0 [] None (Calib.take host 2)

let tiny_spec ~seed name =
  {
    Synth.default_spec with
    Synth.name;
    width = 16;
    height = 16;
    num_layers = 4;
    num_nets = 150;
    capacity = 5;
    seed = 1 + (1000 * seed) + Hashtbl.hash name;
  }

(* The designs of an in-process workload, written as .gr files. *)
let write_designs ctx ~per_shape names =
  List.map
    (fun (label, shape, seed) ->
      let spec =
        match ctx.size with Full -> Inputs.suite_spec shape | Tiny -> tiny_spec ~seed shape
      in
      (label, Inputs.write_gr ~seed ~name:label ~dir:ctx.dir spec))
    (Inputs.instances ~seed:ctx.seed ~per_shape names)

let mean xs = Cpla_util.Stats.mean (Array.of_list xs)
let sum_int f xs = List.fold_left (fun a x -> a + f x) 0 xs
let is_pass s = s = Check.Pass
let is_wrong = function Check.Wrong _ -> true | Check.Pass | Check.Failed _ -> false

(* ---- in-process workloads ---------------------------------------------------- *)

let job_line (o : Flow.outcome) =
  let a0, m0 = o.Flow.tcp0 and a1, m1 = o.Flow.tcp1 in
  Printf.sprintf
    "%-10s %7.3fs cpu %7.3fs avg %.1f->%.1f max %.1f->%.1f vias %d->%d edge-ov %d->%d via-ov %d->%d maze %d iters %d cells %d%s %s"
    o.Flow.design o.Flow.wall_s o.Flow.cpu_s a0 a1 m0 m1 o.Flow.vias0 o.Flow.vias1 o.Flow.edge0
    o.Flow.edge1 o.Flow.via0 o.Flow.via1 o.Flow.maze_routes o.Flow.iterations
    o.Flow.partitions_solved
    (if o.Flow.traced <> None then " [traced]" else "")
    (Check.describe o.Flow.status)

(* Quality metrics over the jobs that passed. *)
let quality (ok : Flow.outcome list) =
  let ratio f = Report.geomean (List.map f ok) in
  let total f g = Report.total_ratio ~after:(sum_int f ok) ~before:(sum_int g ok) in
  let added f g = mean (List.map (fun o -> float_of_int (f o - g o)) ok) in
  [
    ("tcp_score_ratio", ratio (fun o -> Check.score o.Flow.tcp1 /. Check.score o.Flow.tcp0));
    ("avg_tcp_ratio", ratio (fun o -> fst o.Flow.tcp1 /. fst o.Flow.tcp0));
    ("max_tcp_ratio", ratio (fun o -> snd o.Flow.tcp1 /. snd o.Flow.tcp0));
    ("via_count_ratio", total (fun o -> o.Flow.vias1) (fun o -> o.Flow.vias0));
    ("edge_overflow_ratio", total (fun o -> o.Flow.edge1) (fun o -> o.Flow.edge0));
    ("via_overflow_ratio", total (fun o -> o.Flow.via1) (fun o -> o.Flow.via0));
    ("edge_overflow_added", added (fun o -> o.Flow.edge1) (fun o -> o.Flow.edge0));
    ("via_overflow_added", added (fun o -> o.Flow.via1) (fun o -> o.Flow.via0));
  ]

(* Per-layer metrics of the traced jobs, per job. *)
let flow_layers ~workers ~untraced (traced : Flow.outcome list) =
  let per f = mean (List.map f traced) in
  let sp f = per (fun o -> match o.Flow.traced with Some (s, _) -> f s | None -> 0.0) in
  let ctr name =
    per (fun o ->
        match o.Flow.traced with
        | Some (_, c) -> float_of_int (Option.value ~default:0 (List.assoc_opt name c))
        | None -> 0.0)
  in
  let incl name = sp (fun s -> Spans.incl s name) in
  let self name = sp (fun s -> Spans.self s name) in
  let count name = sp (fun s -> float_of_int (Spans.count s name)) in
  let sdp = count "sdp/solve" and retries = ctr "sdp/warm-retries" in
  let hits = ctr "solve-cache/hits" and misses = ctr "solve-cache/misses" in
  let tasks = count "pool/task" and busy = incl "pool/task" in
  let optimize = incl "driver/optimize" in
  let p50 os = Report.median (List.map (fun o -> o.Flow.wall_s) os) in
  [
    ("ispd08.parse_s", incl "ispd08/parse");
    ("router.route_all_s", incl "router/route_all");
    ("router.maze_routes", per (fun o -> float_of_int o.Flow.maze_routes));
    ("router.overflow_2d", per (fun o -> float_of_int o.Flow.overflow_2d));
    ("router.share", Report.ratio (incl "router/route_all") (incl "bench/job"));
    ("init_assign.run_s", incl "init_assign/run");
    ("timing.select_s", incl "timing/select");
    ("driver.optimize_s", optimize);
    ("driver.iterations", per (fun o -> float_of_int o.Flow.iterations));
    ("driver.partitions_solved", per (fun o -> float_of_int o.Flow.partitions_solved));
    ("driver.cell_self_s", self "driver/cell");
    ("driver.partition_self_s", self "driver/partition");
    ("driver.batch_count", count "driver/batch");
    ("sdp.solve_count", sdp);
    ("sdp.solve_self_s", self "sdp/solve");
    ("sdp.warm_retries", retries);
    ("sdp.warm_retry_ratio", Report.ratio retries sdp);
    ("post_map.run_self_s", self "post_map/run");
    ("solve_cache.hits", hits);
    ("solve_cache.misses", misses);
    ("solve_cache.hit_ratio", Report.ratio hits (hits +. misses));
    ("pool.task_count", tasks);
    ("pool.busy_s", busy);
    ( "pool.idle_frac",
      if tasks > 0.0 then 1.0 -. Report.ratio busy (optimize *. float_of_int workers) else 0.0 );
    ("metrics.measure_s", incl "metrics/measure");
    ("verify.check_s", incl "verify/check");
    ("trace.coverage", sp Spans.coverage);
    ("trace.overhead_frac", Report.ratio (p50 traced) (p50 untraced) -. 1.0);
  ]

(* The median of each design's [(design, value)] samples, averaged over the
   designs.  The designs of a workload differ in size, so a median over the
   pooled jobs would sit between their modes and jump with the noise of
   their extremes. *)
let per_design_median samples =
  let designs = List.sort_uniq String.compare (List.map fst samples) in
  mean
    (List.map
       (fun d -> Report.median (List.filter_map (fun (d', v) -> if d' = d then Some v else None) samples))
       designs)

(* Wall-time views of the jobs (per-layer), with the CPU seconds the
   working process spent per second of their [busy_s]. *)
let job_times ~cpu ~busy_s walls =
  [
    ("job_s_p50", Report.median walls);
    ("job_s_p75", Report.percentile walls 75.0);
    ("job_count", float_of_int (List.length walls));
    ("host.cpu_per_wall", Report.ratio cpu busy_s);
  ]

let total = List.fold_left ( +. ) 0.0

(* Layers only the daemon has. *)
let no_daemon =
  [
    ("session.queue_wait_s_p50", 0.0);
    ("session.queue_wait_s_p75", 0.0);
    ("session.service_s_p50", 0.0);
    ("net.submit_rtt_s_p50", 0.0);
    ("net.ping_rtt_s_p50", 0.0);
    ("net.shed", 0.0);
    ("gen.late_s_p75", 0.0);
  ]

let run_in_process ctx ~workload ~config ~setup =
  (* the work runs pinned, one vCPU a worker, when it can be (see Calib) *)
  let cpus = Calib.work_cpus ~workers:config.Cpla.Config.workers in
  Calib.with_pinned cpus @@ fun () ->
  let host = Calib.create cpus in
  let sources, setup_s = repeated_setup ~host ~discard:ignore setup in
  let before_job = ref [] in
  let outcomes =
    Flow.run_closed ?corrupt:ctx.corrupt
      ~between:(fun () -> before_job := Calib.take host 3 :: !before_job)
      ~config ~seconds:ctx.seconds ~trace:ctx.trace
      ~log:(fun o -> ctx.log (job_line o))
      sources
  in
  let after = Calib.take host 3 in
  (* each job scaled by the samples right around it *)
  let around = Array.of_list (List.rev !before_job @ [ after ]) in
  let scale_at i = Calib.scale_between host around.(i) around.(i + 1) in
  ctx.log
    (Printf.sprintf "reference kernel %.4fs (median of %d), scale %.3f, set-up %.3f nominal CPU s, samples %s"
       (Calib.median_s host) (List.length host.Calib.samples) (Calib.scale host) setup_s
       (String.concat " " (List.rev_map (Printf.sprintf "%.4f") host.Calib.samples)));
  let failed = List.filter (fun o -> not (is_pass o.Flow.status)) outcomes in
  let scaled_cpu =
    List.concat
      (List.mapi
         (fun i o ->
           if is_pass o.Flow.status && o.Flow.traced = None then
             [ (o.Flow.design, o.Flow.cpu_s *. scale_at i) ]
           else [])
         outcomes)
  in
  let traced, untraced = List.partition (fun o -> o.Flow.traced <> None) outcomes in
  let ok = List.filter (fun o -> is_pass o.Flow.status) untraced in
  let metrics =
    [
      ("setup_s", setup_s);
      ("cpu_s_per_job", per_design_median scaled_cpu);
      ("peak_rss_mb", Report.median (List.map (fun o -> o.Flow.peak_rss_mb) ok));
      ("host.ref_s", Calib.median_s host);
      ("fail_frac", Report.ratio (float_of_int (List.length failed)) (float_of_int (List.length outcomes)));
    ]
    @ quality (List.filter (fun o -> is_pass o.Flow.status) outcomes)
    @ (let walls = List.map (fun o -> o.Flow.wall_s) ok in
       job_times ~cpu:(total (List.map (fun o -> o.Flow.cpu_s) ok)) ~busy_s:(total walls) walls)
    @ (if ctx.trace then flow_layers ~workers:config.Cpla.Config.workers ~untraced traced else [])
    @ no_daemon
  in
  {
    Report.workload;
    attempted = List.length outcomes;
    failed = List.length failed;
    correct = not (List.exists (fun o -> is_wrong o.Flow.status) outcomes);
    metrics;
    notes = List.map (fun o -> "check failed: " ^ job_line o) failed;
  }

let flow_congested ctx =
  (* `cpla optimize --file X.gr`: parse, route, assign, select 0.5%, SDP on
     one worker, over four instances each of two shapes in turn. *)
  let config = { Cpla.Config.default with Cpla.Config.critical_ratio = 0.005; workers = 1 } in
  run_in_process ctx ~workload:"flow-congested" ~config ~setup:(fun () ->
      List.map
        (fun (name, path) -> Flow.Gr { name; path })
        (write_designs ctx ~per_shape:4 [ "adaptec1"; "newblue1" ]))

let reopt_dense ctx =
  (* Routed once in set-up; each job re-assigns, releases 2% and re-optimises
     on two workers for two outer iterations, as daemon-mix jobs do
     (iters=2).  Left to converge, an instance takes 2 to 5 iterations, so
     which instances a seed draws would move the work of a run by 25%. *)
  let config =
    { Cpla.Config.default with Cpla.Config.critical_ratio = 0.02; workers = 2; max_outer_iters = 2 }
  in
  run_in_process ctx ~workload:"reopt-dense" ~config ~setup:(fun () ->
      List.map
        (fun (name, path) -> Flow.route_once ~name path)
        (write_designs ctx ~per_shape:3 [ "adaptec2"; "newblue1" ]))

(* ---- daemon-mix -------------------------------------------------------------- *)

(* Open-loop rate, jobs per second: the one daemon worker is 30-50% busy
   (service 0.13-0.25 s a job on a shared 2-vCPU VM).  Nearer saturation,
   the CPU drift of a shared machine moves latency more than any change
   under test would, and the daemon may shed. *)
let rate = 2.0
let drain_s = 60.0

type daemon_setup = {
  arrivals : Inputs.arrival array;
  paths : string array;
  initials : Daemon_mix.initial array;
  daemon : Daemon_mix.daemon;
  client : Cpla_net.Client.t;
}

type phase = {
  stream : Daemon_mix.result;
  verdicts : Daemon_mix.verdict array;
  stats : Daemon_mix.stats;
  rss : float;  (** the daemon's peak RSS, MiB *)
  cpu : float;  (** CPU seconds the daemon spent on the stream *)
  scaled_cpu : float;  (** ... scaled to the nominal host speed *)
  printed : string;  (** what the daemon printed; with --metrics, its registry *)
}

(* Jobs a stream sends between two calibrations. *)
let segment = 10

(* One phase: a daemon and the whole stream, its verdicts and stats.  The
   stream goes in segments of [segment] jobs, each drained before the next;
   with [host], the kernel runs beside the idle daemon after each segment,
   and each segment's CPU seconds are scaled by the samples around it
   ([before] is the first segment's).  On a stream as a whole, samples
   taken before and after it tracked its CPU time worse than taking none. *)
let run_phase ?corrupt ?host ?(before = []) ~arrivals ~paths ~initials ~daemon ~client () =
  let pid = daemon.Daemon_mix.pid in
  let n = Array.length arrivals in
  let rec go start before acc =
    if start >= n then List.rev acc
    else begin
      let chunk = Array.sub arrivals start (min segment (n - start)) in
      let base = chunk.(0).Inputs.due_s in
      let chunk = Array.map (fun (a : Inputs.arrival) -> { a with due_s = a.due_s -. base }) chunk in
      let cpu0 = Proc.cpu_s pid in
      let r = Daemon_mix.run_stream ~client ~paths ~drain_s chunk in
      let cpu = Proc.cpu_s pid -. cpu0 in
      match host with
      | Some h ->
          let after = Calib.take h 3 in
          go (start + segment) after ((r, cpu, cpu *. Calib.scale_between h before after) :: acc)
      | None -> go (start + segment) before ((r, cpu, cpu) :: acc)
    end
  in
  let segments = go 0 before [] in
  let stream = Daemon_mix.merge (List.map (fun (r, _, _) -> r) segments) in
  let stats = Daemon_mix.stats client in
  let rss = Proc.peak_rss_mb (string_of_int pid) in
  Cpla_net.Client.close client;
  let printed = Daemon_mix.stop daemon in
  {
    stream;
    verdicts = Daemon_mix.verdicts ?corrupt ~initials stream;
    stats;
    rss;
    cpu = List.fold_left (fun a (_, c, _) -> a +. c) 0.0 segments;
    scaled_cpu = List.fold_left (fun a (_, _, c) -> a +. c) 0.0 segments;
    printed;
  }

let latencies (p : phase) =
  List.filter_map (fun (v : Daemon_mix.verdict) -> v.latency) (Array.to_list p.verdicts)

let done_jobs (p : phase) =
  List.filter_map (fun (v : Daemon_mix.verdict) -> Option.map (fun m -> (v, m)) v.done_)
    (Array.to_list p.verdicts)

let service (p : phase) = List.map (fun (_, m) -> m.Cpla_serve.Job.wall_s) (done_jobs p)

(* Quality metrics over the done jobs; via# after is [vias1] of the job's
   input. *)
let daemon_quality ~vias1 (dones : (Daemon_mix.verdict * Cpla_serve.Job.metrics) list) =
  let dones = List.map (fun ((v : Daemon_mix.verdict), m) -> (v.init, m, vias1 v.input)) dones in
  let ratio f = Report.geomean (List.map f dones) in
  let total f g = Report.total_ratio ~after:(sum_int f dones) ~before:(sum_int g dones) in
  let added f g = mean (List.map (fun d -> float_of_int (f d - g d)) dones) in
  let open Cpla_serve.Job in
  let before f = fun ((i : Daemon_mix.initial), _, _) -> f i in
  [
    ("tcp_score_ratio", ratio (fun (i, m, _) -> Check.score (m.avg_tcp, m.max_tcp) /. i.Daemon_mix.expect.Check.score0));
    ("avg_tcp_ratio", ratio (fun (i, m, _) -> m.avg_tcp /. fst i.Daemon_mix.tcp0));
    ("max_tcp_ratio", ratio (fun (i, m, _) -> m.max_tcp /. snd i.Daemon_mix.tcp0));
    ("via_count_ratio", total (fun (_, _, v) -> v) (before (fun i -> i.vias0)));
    ("edge_overflow_ratio", total (fun (_, m, _) -> m.edge_overflow) (before (fun i -> i.e0)));
    ("via_overflow_ratio", total (fun (_, m, _) -> m.via_overflow) (before (fun i -> i.v0)));
    ("edge_overflow_added", added (fun (_, m, _) -> m.edge_overflow) (before (fun i -> i.e0)));
    ("via_overflow_added", added (fun (_, m, _) -> m.via_overflow) (before (fun i -> i.v0)));
  ]

(* Per-layer metrics of a traced phase, per job, from the daemon's Chrome
   trace and metrics dump.  The daemon spans its job and the driver's
   layers, not loading, routing, assignment, selection, measuring or the
   audit: those read 0 here (see README). *)
let daemon_layers ~plain (traced : phase) ~trace_text =
  let spans = Spans.analyse ~root:"serve/job" (Spans.of_chrome_trace trace_text) in
  let counters = Spans.counters_of_dump traced.printed in
  let per x = x /. float_of_int (max 1 (List.length (done_jobs traced))) in
  let ctr name = per (float_of_int (Option.value ~default:0 (List.assoc_opt name counters))) in
  let self name = per (Spans.self spans name) in
  let count name = per (float_of_int (Spans.count spans name)) in
  let sdp = count "sdp/solve" and retries = ctr "sdp/warm-retries" in
  let hits = per (float_of_int traced.stats.Daemon_mix.hits) in
  let misses = per (float_of_int traced.stats.Daemon_mix.misses) in
  let jobs = Array.to_list plain.stream.Daemon_mix.jobs in
  let waits =
    List.filter_map (fun (v : Daemon_mix.verdict) -> v.queue_wait) (Array.to_list plain.verdicts)
  in
  [
    ("ispd08.parse_s", 0.0);
    ("router.route_all_s", 0.0);
    ("router.maze_routes", 0.0);
    ("router.overflow_2d", 0.0);
    ("router.share", 0.0);
    ("init_assign.run_s", 0.0);
    ("timing.select_s", 0.0);
    ("driver.optimize_s", per (Spans.incl spans "driver/iteration"));
    ("driver.iterations", ctr "driver/iterations");
    ("driver.partitions_solved", ctr "driver/cells");
    ("driver.cell_self_s", self "driver/cell");
    ("driver.partition_self_s", self "driver/partition");
    ("driver.batch_count", count "driver/batch");
    ("sdp.solve_count", sdp);
    ("sdp.solve_self_s", self "sdp/solve");
    ("sdp.warm_retries", retries);
    ("sdp.warm_retry_ratio", Report.ratio retries sdp);
    ("post_map.run_self_s", self "post_map/run");
    ("solve_cache.hits", hits);
    ("solve_cache.misses", misses);
    ("solve_cache.hit_ratio", Report.ratio hits (hits +. misses));
    ("pool.task_count", count "pool/task");
    ("pool.busy_s", per (Spans.incl spans "pool/task"));
    ("pool.idle_frac", 0.0);
    ("metrics.measure_s", 0.0);
    ("verify.check_s", 0.0);
    ("session.queue_wait_s_p50", Report.median waits);
    ("session.queue_wait_s_p75", Report.percentile waits 75.0);
    ("session.service_s_p50", Report.median (service plain));
    ( "net.submit_rtt_s_p50",
      Report.median
        (List.filter_map
           (fun j -> if j.Daemon_mix.id <> None then Some j.Daemon_mix.rtt else None)
           jobs) );
    ("net.ping_rtt_s_p50", Report.median plain.stream.Daemon_mix.pings);
    ("gen.late_s_p75", Report.percentile (List.map (fun j -> j.Daemon_mix.sent -. j.Daemon_mix.due) jobs) 75.0);
    ("trace.coverage", Spans.coverage spans);
    ("trace.overhead_frac", Report.ratio (Report.median (latencies traced)) (Report.median (latencies plain)) -. 1.0);
  ]

let daemon_mix ctx =
  let phase_s = if ctx.trace then ctx.seconds /. 2.0 else ctx.seconds in
  let count = match ctx.size with Full -> max 2 (int_of_float (rate *. phase_s)) | Tiny -> 2 in
  let tag = ref 0 in
  let spawn ~trace =
    incr tag;
    let d = Daemon_mix.spawn ~cpla:ctx.cpla ~dir:ctx.dir ~tag:(Printf.sprintf "daemon-%d" !tag) ~trace in
    let client = Daemon_mix.connect d in
    Daemon_mix.ping client;
    (d, client)
  in
  let setup () =
    let arrivals, specs = Inputs.stream ~seed:ctx.seed ~rate ~count in
    let paths =
      Array.map
        (fun (spec, seed) ->
          let spec = match ctx.size with Full -> spec | Tiny -> tiny_spec ~seed spec.Synth.name in
          Inputs.write_gr ~seed ~name:spec.Synth.name ~dir:ctx.dir spec)
        specs
    in
    let initials = Array.map Daemon_mix.initial paths in
    let daemon, client = spawn ~trace:false in
    { arrivals; paths; initials; daemon; client }
  in
  let discard s =
    Cpla_net.Client.close s.client;
    ignore (Daemon_mix.stop s.daemon)
  in
  (* the kernel runs pinned beside the daemon, while the daemon idles *)
  let host = Calib.create (Calib.work_cpus ~workers:1) in
  let s, setup_s =
    repeated_setup ~child_cpu:(fun s -> Proc.cpu_s s.daemon.Daemon_mix.pid) ~host ~discard
      setup
  in
  let before_stream = Calib.take host 3 in
  let phase ?host ?before ~daemon ~client () =
    run_phase ?corrupt:ctx.corrupt ?host ?before ~arrivals:s.arrivals ~paths:s.paths
      ~initials:s.initials ~daemon ~client ()
  in
  let plain = phase ~host ~before:before_stream ~daemon:s.daemon ~client:s.client () in
  let traced =
    if not ctx.trace then None
    else begin
      (* Same stream again, against a daemon started with --trace/--metrics. *)
      let daemon, client = spawn ~trace:true in
      let p = phase ~daemon ~client () in
      let trace_text =
        match daemon.Daemon_mix.trace_path with
        | Some path when Sys.file_exists path -> Inputs.read_file path
        | _ -> ""
      in
      Some (p, trace_text)
    end
  in
  (* via# after, replayed once per input a done job used, and whether the
     replay's Tcp equals the daemon's *)
  let dones = done_jobs plain in
  let replayed = Hashtbl.create 16 in
  List.iter
    (fun ((v : Daemon_mix.verdict), (m : Cpla_serve.Job.metrics)) ->
      if not (Hashtbl.mem replayed v.input) then begin
        let vias, tcp = Daemon_mix.replay_vias s.paths.(v.input) v.init in
        Hashtbl.replace replayed v.input (vias, tcp = (m.avg_tcp, m.max_tcp))
      end)
    dones;
  let vias1 input = fst (Hashtbl.find replayed input) in
  let phases = plain :: Option.fold ~none:[] ~some:(fun (p, _) -> [ p ]) traced in
  let verdicts = List.concat_map (fun p -> Array.to_list p.verdicts) phases in
  let failed = List.filter (fun (v : Daemon_mix.verdict) -> not (is_pass v.status)) verdicts in
  let lat = latencies plain in
  ctx.log
    (Printf.sprintf
       "%d jobs, %d done, p50 %.3fs p75 %.3fs p95 %.3fs, daemon cpu %.2fs (scaled %.2fs), set-up %.3f nominal CPU s, reference kernel %.4fs (scale %.3f), cache %d hits / %d misses, shed %d, replays equal to the daemon's Tcp %d/%d"
       (Array.length plain.verdicts) (List.length dones) (Report.median lat)
       (Report.percentile lat 75.0) (Report.percentile lat 95.0) plain.cpu plain.scaled_cpu setup_s
       (Calib.median_s host) (Calib.scale host) plain.stats.Daemon_mix.hits
       plain.stats.Daemon_mix.misses plain.stats.Daemon_mix.shed
       (Hashtbl.fold (fun _ (_, same) n -> if same then n + 1 else n) replayed 0)
       (Hashtbl.length replayed));
  let metrics =
    [
      ("setup_s", setup_s);
      ("cpu_s_per_job", Report.ratio plain.scaled_cpu (float_of_int (List.length dones)));
      ("peak_rss_mb", plain.rss);
      ("host.ref_s", Calib.median_s host);
      ("net.shed", float_of_int plain.stats.Daemon_mix.shed);
      ("fail_frac", Report.ratio (float_of_int (List.length failed)) (float_of_int (List.length verdicts)));
    ]
    @ daemon_quality ~vias1 dones
    @ job_times ~cpu:plain.cpu ~busy_s:(total (service plain)) lat
    @
    match traced with
    | None -> []
    | Some (p, trace_text) -> daemon_layers ~plain p ~trace_text
  in
  {
    Report.workload = "daemon-mix";
    attempted = List.length verdicts;
    failed = List.length failed;
    correct = not (List.exists (fun (v : Daemon_mix.verdict) -> is_wrong v.status) verdicts);
    metrics;
    notes =
      List.mapi
        (fun i (v : Daemon_mix.verdict) ->
          Printf.sprintf "job %d: %s" i (Check.describe v.status))
        failed;
  }

let run ctx = function
  | "flow-congested" -> flow_congested ctx
  | "reopt-dense" -> reopt_dense ctx
  | "daemon-mix" -> daemon_mix ctx
  | w -> invalid_arg ("unknown workload " ^ w)
