(* Metric names, units and the result line.  The lists here are the ones
   BENCHMARK.json declares; the self-test checks that they agree. *)

module Json = Cpla_net.Json

(* Reported by every untraced run, on every workload.  Times here are CPU
   seconds scaled to a nominal host speed (see Calib): on a shared host
   wall time also counts the time other tenants held the cores.  The
   wall-time figures are per-layer metrics below. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("cpu_s_per_job", "s");
    ("tcp_score_ratio", "ratio");
    ("avg_tcp_ratio", "ratio");
    ("via_count_ratio", "ratio");
    ("edge_overflow_ratio", "ratio");
    ("via_overflow_ratio", "ratio");
    ("peak_rss_mb", "MiB");
  ]

(* Reported by every traced run, on every workload; a layer the workload
   does not exercise (or the daemon does not span) reads 0. *)
let per_layer =
  [
    ("job_s_p50", "s");
    ("job_s_p75", "s");
    ("job_count", "count");
    ("host.cpu_per_wall", "ratio");
    ("host.ref_s", "s");
    ("ispd08.parse_s", "s");
    ("router.route_all_s", "s");
    ("router.maze_routes", "count");
    ("router.overflow_2d", "count");
    ("router.share", "ratio");
    ("init_assign.run_s", "s");
    ("timing.select_s", "s");
    ("driver.optimize_s", "s");
    ("driver.iterations", "count");
    ("driver.partitions_solved", "count");
    ("driver.cell_self_s", "s");
    ("driver.partition_self_s", "s");
    ("driver.batch_count", "count");
    ("max_tcp_ratio", "ratio");
    ("sdp.solve_count", "count");
    ("sdp.solve_self_s", "s");
    ("sdp.warm_retries", "count");
    ("sdp.warm_retry_ratio", "ratio");
    ("post_map.run_self_s", "s");
    ("edge_overflow_added", "count");
    ("via_overflow_added", "count");
    ("solve_cache.hits", "count");
    ("solve_cache.misses", "count");
    ("solve_cache.hit_ratio", "ratio");
    ("pool.task_count", "count");
    ("pool.busy_s", "s");
    ("pool.idle_frac", "ratio");
    ("metrics.measure_s", "s");
    ("verify.check_s", "s");
    ("session.queue_wait_s_p50", "s");
    ("session.queue_wait_s_p75", "s");
    ("session.service_s_p50", "s");
    ("net.submit_rtt_s_p50", "s");
    ("net.ping_rtt_s_p50", "s");
    ("net.shed", "count");
    ("gen.late_s_p75", "s");
    ("trace.coverage", "ratio");
    ("trace.overhead_frac", "ratio");
    ("fail_frac", "ratio");
  ]

let workloads = [ "flow-congested"; "reopt-dense"; "daemon-mix" ]

(* ---- statistics ------------------------------------------------------------ *)

let percentile xs p =
  match xs with
  | [] -> 0.0
  | _ -> Cpla_util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0

(* Geometric mean of positive ratios (1.0 when there are none). *)
let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 1.0
  | ys -> exp (List.fold_left (fun a x -> a +. log x) 0.0 ys /. float_of_int (List.length ys))

(* Ratio of two totals; an empty base counts as 1 so a design that starts
   legal and stays legal reads 1.0 rather than 0/0. *)
let total_ratio ~after ~before = float_of_int (max 1 after) /. float_of_int (max 1 before)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- the result ------------------------------------------------------------ *)

type t = {
  workload : string;
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float) list;
  notes : string list;  (** human-readable findings, printed to stderr *)
}

(* The declared metric set of a run, each with its unit; a name missing
   from [values] is a bug in this benchmark, not a 0. *)
let select ~trace values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> (name, v, unit_)
      | None -> invalid_arg ("metric not computed: " ^ name))
    (if trace then per_layer else end_to_end)

(* The result object over [results]; with several workloads each metric
   name is prefixed with its workload. *)
let json_line ~trace results =
  let prefix r = match results with [ _ ] -> "" | _ -> r.workload ^ "/" in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun r -> r.correct) results));
         ("attempted", Json.Num (float_of_int (sum (fun r -> r.attempted))));
         ("failed", Json.Num (float_of_int (sum (fun r -> r.failed))));
         ( "metrics",
           Json.Obj
             (List.concat_map
                (fun r ->
                  List.map
                    (fun (name, v, unit_) ->
                      (prefix r ^ name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
                    (select ~trace r.metrics))
                results) );
       ])

let table ~trace r =
  String.concat "\n"
    (List.map
       (fun (name, v, unit_) -> Printf.sprintf "  %-26s %14.6g %s" name v unit_)
       (select ~trace r.metrics))
