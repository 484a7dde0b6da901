(* In-process jobs: the flow-congested and reopt-dense workloads.  A job
   calls the same public functions, in the same order, as `cpla optimize`;
   the spans below are the benchmark's own, one per layer call, and only
   record while a traced job has observability switched on.

   A job runs in two timed phases, load-to-selection and
   optimisation-to-audit.  Between them, untimed, the benchmark records
   the values the output checks compare against; so the job's time is the
   product's alone. *)

open Cpla_route
module Graph = Cpla_grid.Graph
module Tech = Cpla_grid.Tech
module Incremental = Cpla_timing.Incremental
module Critical = Cpla_timing.Critical
module Obs = Cpla_obs

type source =
  | Gr of { name : string; path : string }
      (** a .gr file: each job parses and routes it *)
  | Routed of {
      name : string;
      graph : Graph.t;  (** usage-free copy, cloned by each job *)
      nets : Net.t array;
      trees : Stree.t option array;
    }  (** routed once in setup: each job starts from the stored trees *)

let source_name = function Gr g -> g.name | Routed r -> r.name

(* reopt-dense setup: parse and route a design once. *)
let route_once ~name path =
  let graph, nets = Inputs.load_gr path in
  let pristine = Graph.clone graph in
  let routed = Router.route_all ~graph nets in
  Routed { name; graph = pristine; nets; trees = routed.Router.trees }

(* Results the self-test breaks on purpose, each to be caught by one check. *)
type corruption =
  | Unassign  (** a released segment left unassigned *)
  | Worsen  (** every released net moved to its slowest layers *)
  | Wirelength  (** a daemon result reporting another wirelength *)

type outcome = {
  design : string;
  wall_s : float;  (** of the two timed phases *)
  cpu_s : float;  (** CPU seconds of the process over them, every domain counted *)
  peak_rss_mb : float;  (** the process's peak resident set during the job *)
  tcp0 : float * float;  (** released Avg and Max(Tcp) before optimisation, from scratch *)
  tcp1 : float * float;  (** ... and after *)
  vias0 : int;  (** design via# before optimisation *)
  vias1 : int;
  edge0 : int;  (** design edge overflow before optimisation *)
  edge1 : int;
  via0 : int;  (** design via overflow (OV#) before optimisation *)
  via1 : int;
  maze_routes : int;
  overflow_2d : int;
  iterations : int;
  partitions_solved : int;
  status : Check.status;
  traced : (Spans.t * (string * int) list) option;
      (** span attribution and obs counters of a traced job *)
}

(* Obs counters the per-layer metrics read. *)
let counter_names = [ "sdp/warm-retries"; "solve-cache/hits"; "solve-cache/misses" ]

let span name f = Obs.Span.with_ ~name f

let corrupt_result asg released = function
  | Unassign -> (
      match
        List.find_opt
          (fun n -> Array.length (Assignment.segments asg n) > 0)
          (Array.to_list released)
      with
      | Some net -> Assignment.unassign asg ~net ~seg:0
      | None -> ())
  | Worsen ->
      (* each released net takes the one layer per direction that makes
         it slowest *)
      let tech = Assignment.tech asg in
      let layers = Tech.layers_of_dir tech in
      let place net (h, v) =
        Array.iteri
          (fun seg (s : Segment.t) ->
            let layer = match s.Segment.dir with Tech.Horizontal -> h | Tech.Vertical -> v in
            Assignment.set_layer asg ~net ~seg ~layer)
          (Assignment.segments asg net)
      in
      let choices =
        List.concat_map (fun h -> List.map (fun v -> (h, v)) (layers Tech.Vertical)) (layers Tech.Horizontal)
      in
      Array.iter
        (fun net ->
          let tcp c =
            place net c;
            (Critical.net_tcp asg net, c)
          in
          place net (snd (List.fold_left max (tcp (List.hd choices)) (List.map tcp choices))))
        released
  | Wirelength -> ()

(* [timed.phase f] runs one phase of a job and adds its time to the job's. *)
type timer = { phase : 'a. (unit -> 'a) -> 'a }

let pipeline ~config ?corrupt ~(timed : timer) source =
  let asg, engine, released, maze_routes, overflow_2d =
    timed.phase (fun () ->
        (* the graph the assignment starts from: the routed one, or a copy
           of the one set-up routed *)
        let graph, nets, trees, maze_routes, overflow_2d =
          match source with
          | Gr { path; _ } ->
              let graph, nets = span "ispd08/parse" (fun () -> Inputs.load_gr path) in
              let r = span "router/route_all" (fun () -> Router.route_all ~graph nets) in
              ((fun () -> graph), nets, r.Router.trees, r.Router.maze_routes, r.Router.overflow_2d)
          | Routed r -> ((fun () -> Graph.clone r.graph), r.nets, r.trees, 0, 0)
        in
        let asg =
          span "init_assign/run" (fun () ->
              let asg = Assignment.create ~graph:(graph ()) ~nets ~trees in
              Init_assign.run asg;
              asg)
        in
        let engine, released =
          span "timing/select" (fun () ->
              let engine = Incremental.create asg in
              let released =
                Incremental.select engine ~ratio:config.Cpla.Config.critical_ratio
              in
              ignore (Incremental.avg_max_tcp engine released);
              (engine, released))
        in
        (asg, engine, released, maze_routes, overflow_2d))
  in
  let g = Assignment.graph asg in
  let tcp0 = Critical.avg_max_tcp asg released in
  let expect =
    {
      Check.wirelength = (Verify.check asg).Verify.wirelength;
      released = Check.expected_released asg ~ratio:config.Cpla.Config.critical_ratio;
      score0 = Check.score tcp0;
    }
  in
  let vias0 = Graph.total_via_usage g and edge0 = Graph.edge_overflow g in
  let via0 = Graph.via_overflow g in
  let report, m, verify =
    timed.phase (fun () ->
        let report =
          span "driver/optimize" (fun () ->
              Cpla.Driver.optimize_released ~config ~engine asg ~released)
        in
        let m =
          span "metrics/measure" (fun () -> Cpla.Metrics.measure ~engine asg ~released ~cpu_s:0.0)
        in
        Option.iter (corrupt_result asg released) corrupt;
        let verify = span "verify/check" (fun () -> Verify.check asg) in
        (report, m, verify))
  in
  let violations = Check.structural verify in
  (* a structurally broken assignment has no timing to check *)
  let tcp1 =
    if violations = [] then Critical.avg_max_tcp asg released else (Float.nan, Float.nan)
  in
  {
    design = source_name source;
    wall_s = 0.0;
    cpu_s = 0.0;
    peak_rss_mb = 0.0;
    tcp0;
    tcp1;
    vias0;
    vias1 = m.Cpla.Metrics.via_count;
    edge0;
    edge1 = m.Cpla.Metrics.edge_overflow;
    via0;
    via1 = m.Cpla.Metrics.via_overflow;
    maze_routes;
    overflow_2d;
    iterations = report.Cpla.Driver.iterations;
    partitions_solved = report.Cpla.Driver.partitions_solved;
    status =
      Check.status_of
      @@ Check.job expect ~violations
        ~wirelength:verify.Verify.wirelength
        ~released:(Array.length report.Cpla.Driver.released)
        ~score1:(Check.score tcp1);
    traced = None;
  }

let failed_outcome design msg =
  {
    design;
    wall_s = 0.0;
    cpu_s = 0.0;
    peak_rss_mb = 0.0;
    tcp0 = (0.0, 0.0);
    tcp1 = (0.0, 0.0);
    vias0 = 0;
    vias1 = 0;
    edge0 = 0;
    edge1 = 0;
    via0 = 0;
    via1 = 0;
    maze_routes = 0;
    overflow_2d = 0;
    iterations = 0;
    partitions_solved = 0;
    status = Check.Failed msg;
    traced = None;
  }

(* One job.  With [trace], observability is on for exactly this job and
   its spans and counters are collected afterwards; each timed phase is a
   "bench/job" root span, so the checks between them count nowhere. *)
let run_job ?(trace = false) ?corrupt ~config source =
  (* every job starts from a compacted heap, so a job does not pay for
     the garbage of the one before, and with the peak resident set reset *)
  Gc.compact ();
  ignore (Proc.reset_peak_rss ());
  if trace then Obs.Obs.set_enabled true;
  let wall_s = ref 0.0 and cpu_s = ref 0.0 in
  let phase f =
    let watch = Cpla_util.Timer.wall () and cpu = Cpla_util.Timer.start () in
    Fun.protect
      ~finally:(fun () ->
        wall_s := !wall_s +. Cpla_util.Timer.elapsed_s watch;
        cpu_s := !cpu_s +. Cpla_util.Timer.elapsed_s cpu)
      (fun () -> span "bench/job" f)
  in
  let result =
    match pipeline ~config ?corrupt ~timed:{ phase } source with
    | o -> o
    | exception e ->
        Cpla_util.Exn.reraise_if_async e;
        failed_outcome (source_name source) ("raised " ^ Printexc.to_string e)
  in
  let traced =
    if not trace then None
    else begin
      Obs.Obs.set_enabled false;
      let spans = Spans.analyse (Spans.of_obs (Obs.Sink.drain ())) in
      let counters =
        List.map
          (fun n -> (n, Option.value ~default:0 (Obs.Metrics.counter_value n)))
          counter_names
      in
      Obs.Obs.reset ();
      Some (spans, counters)
    end
  in
  { result with wall_s = !wall_s; cpu_s = !cpu_s; peak_rss_mb = Proc.peak_rss_mb "self"; traced }

(* Closed loop over [sources] in turn until [seconds] have passed and every
   source ran at least once, calling [between] before each job.  In trace
   mode each source runs twice in a row, untraced then traced, so the trace
   overhead compares like with like; the loop stops on a whole pair, after
   at least one. *)
let run_closed ?corrupt ?(between = ignore) ~config ~seconds ~trace ~log sources =
  let sources = Array.of_list sources in
  let n = Array.length sources in
  let watch = Cpla_util.Timer.wall () in
  let rec go i acc =
    let finished = if trace then i >= 2 && i mod 2 = 0 else i >= n in
    if finished && Cpla_util.Timer.elapsed_s watch >= seconds then List.rev acc
    else begin
      let src, traced =
        if trace then (sources.(i / 2 mod n), i mod 2 = 1) else (sources.(i mod n), false)
      in
      between ();
      let o = run_job ~trace:traced ?corrupt ~config src in
      log o;
      go (i + 1) (o :: acc)
    end
  in
  go 0 []
