(* The daemon-mix workload: `cpla daemon --workers 1 --solve-cache` as a
   child process, one client connection sending jobs open loop at a fixed
   rate.  Each job is timed from when it was due, so a stall also charges
   the jobs queued behind it. *)

module Client = Cpla_net.Client
module Protocol = Cpla_net.Protocol
module Timer = Cpla_util.Timer

(* The job every input is submitted as. *)
let spec_line path = Printf.sprintf "%s ratio=0.01 iters=2" path

(* ---- the daemon process ---------------------------------------------------- *)

type daemon = { pid : int; port : int; out_path : string; trace_path : string option }

(* Children still running; killed at exit so no daemon outlives the run. *)
let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter reap !live)

(* The port from the daemon's "cpla daemon listening on HOST:PORT" line. *)
let find_port text =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix:"cpla daemon listening on " line then
        Option.bind (String.rindex_opt line ':') (fun c ->
            int_of_string_opt (String.sub line (c + 1) (String.length line - c - 1)))
      else None)
    (String.split_on_char '\n' text)

let spawn ~cpla ~dir ~tag ~trace =
  let out_path = Filename.concat dir (tag ^ ".out") in
  let trace_path = if trace then Some (Filename.concat dir (tag ^ "-trace.json")) else None in
  let out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let args =
    [ cpla; "daemon"; "--host"; "127.0.0.1"; "--port"; "0"; "--workers"; "1"; "--solve-cache"; "--quiet" ]
    @ match trace_path with Some p -> [ "--trace"; p; "--metrics" ] | None -> []
  in
  (* the daemon's one worker runs pinned to one vCPU, as the kernel that
     scales its CPU time does (see Calib) *)
  let argv = Calib.pinned (Calib.work_cpus ~workers:1) (Array.of_list args) in
  let pid = Unix.create_process argv.(0) argv stdin_r out out in
  Unix.close out;
  Unix.close stdin_r;
  Unix.close stdin_w;
  live := pid :: !live;
  let watch = Timer.wall () in
  let rec wait () =
    match find_port (Inputs.read_file out_path) with
    | Some port -> port
    | None ->
        if Timer.elapsed_s watch > 30.0 then begin
          reap pid;
          live := List.filter (( <> ) pid) !live;
          failwith ("daemon did not report its port: " ^ Inputs.read_file out_path)
        end;
        Unix.sleepf 0.005;
        wait ()
  in
  let port = wait () in
  { pid; port; out_path; trace_path }

(* SIGTERM (graceful drain), wait for exit, and return what the daemon
   printed — with --metrics, the registry dump. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let watch = Timer.wall () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Timer.elapsed_s watch < 20.0 ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> reap d.pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live;
  Inputs.read_file d.out_path

let connect d = Client.connect ~host:"127.0.0.1" ~port:d.port ()

let ping client =
  match Client.call ~timeout_s:10.0 client Protocol.Ping with
  | Ok (Protocol.Result { resp = Protocol.Pong; _ }) -> ()
  | _ -> failwith "daemon did not answer a ping"

(* ---- the open-loop stream -------------------------------------------------- *)

type times = {
  mutable submitted : float option;
  mutable started : float option;
  mutable terminal : (float * Protocol.event) option;
}

type job = {
  arrival : Inputs.arrival;
  due : float;  (** absolute due time *)
  mutable sent : float;
  mutable rtt : float;
  mutable id : int option;
  mutable refused : string option;  (** shed or rejected at submission *)
}

type result = {
  jobs : job array;
  times : (int, times) Hashtbl.t;  (** by daemon job id *)
  pings : float list;
}

let times_of tbl id =
  match Hashtbl.find_opt tbl id with
  | Some t -> t
  | None ->
      let t = { submitted = None; started = None; terminal = None } in
      Hashtbl.replace tbl id t;
      t

(* Send [arrivals] at their due times, stream events until every accepted
   job settled (or [drain_s] past the last due time), pinging twice a
   second to sample the wire round trip under load. *)
let run_stream ~client ~paths ~drain_s (arrivals : Inputs.arrival array) =
  let tbl = Hashtbl.create 64 in
  let on_event (ev : Protocol.event) =
    let r = times_of tbl ev.Protocol.job in
    let now = Timer.now_s () in
    match ev.Protocol.state with
    | "submitted" -> r.submitted <- Some now
    | "started" -> r.started <- Some now
    | s when Protocol.is_terminal_state s -> r.terminal <- Some (now, ev)
    | _ -> ()
  in
  let t0 = Timer.now_s () +. 0.05 in
  let jobs =
    Array.map
      (fun (a : Inputs.arrival) ->
        { arrival = a; due = t0 +. a.Inputs.due_s; sent = 0.0; rtt = 0.0; id = None; refused = None })
      arrivals
  in
  let n = Array.length jobs in
  let last_due = if n = 0 then t0 else jobs.(n - 1).due in
  let deadline = last_due +. drain_s in
  let pings = ref [] in
  let next = ref 0 in
  let next_ping = ref t0 in
  let broken = ref false in
  let unsettled () =
    Array.exists
      (fun j ->
        match j.id with
        | Some id -> (times_of tbl id).terminal = None
        | None -> false)
      jobs
  in
  let submit j =
    j.sent <- Timer.now_s ();
    let line = spec_line paths.(j.arrival.Inputs.input) in
    (match Client.call ~timeout_s:30.0 ~on_event client (Protocol.Submit { spec_line = line }) with
    | Ok (Protocol.Result { resp = Protocol.Accepted { job }; _ }) -> j.id <- Some job
    | Ok (Protocol.Error { message; _ }) -> j.refused <- Some message
    | Ok (Protocol.Result _) -> j.refused <- Some "unexpected response"
    | Error e ->
        j.refused <- Some e;
        broken := true);
    j.rtt <- Timer.now_s () -. j.sent
  in
  while (!next < n || unsettled ()) && Timer.now_s () < deadline && not !broken do
    let now = Timer.now_s () in
    if !next < n && now >= jobs.(!next).due then begin
      submit jobs.(!next);
      incr next
    end
    else if now >= !next_ping then begin
      (match Client.call ~timeout_s:30.0 ~on_event client Protocol.Ping with
      | Ok (Protocol.Result { resp = Protocol.Pong; _ }) -> pings := (Timer.now_s () -. now) :: !pings
      | Ok _ -> ()
      | Error _ -> broken := true);
      next_ping := now +. 0.5
    end
    else begin
      let wake = Float.min deadline (Float.min !next_ping (if !next < n then jobs.(!next).due else infinity)) in
      match Client.recv ~timeout_s:(Float.max 0.0 (wake -. now)) client with
      | Ok (Protocol.Ev ev) -> on_event ev
      | Ok (Protocol.Resp _) -> ()
      | Error _ ->
          (* a timeout returns at [wake]; an early error is a dead connection *)
          if Timer.now_s () < wake -. 0.05 then broken := true
    end
  done;
  { jobs; times = tbl; pings = !pings }

(* The streams of consecutive segments as one. *)
let merge results =
  let times = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.iter (Hashtbl.replace times) r.times) results;
  {
    jobs = Array.concat (List.map (fun r -> r.jobs) results);
    times;
    pings = List.concat_map (fun r -> r.pings) results;
  }

type stats = { hits : int; misses : int; shed : int }

let stats client =
  match Client.call ~timeout_s:10.0 client Protocol.Stats with
  | Ok (Protocol.Result { resp = Protocol.Stats_r s; _ }) ->
      { hits = s.Protocol.cache_hits; misses = s.Protocol.cache_misses; shed = s.Protocol.shed }
  | _ -> failwith "daemon did not answer a stats request"

(* The daemon's configuration for one input, parsed from the very spec line
   the client submits. *)
let config path =
  match Cpla_serve.Job.parse_manifest (spec_line path) with
  | Ok [ spec ] -> spec.Cpla_serve.Job.config
  | Ok _ | Error _ -> failwith ("bad spec line: " ^ spec_line path)

(* An input as the daemon's job sees it just before optimising: set-up
   replays the daemon's job steps (Session.run_job: load, route, assign,
   select) in process.  [expect] is what every daemon result for the input
   must match; the rest are the before-values of the metrics. *)
type initial = {
  expect : Check.expect;
  tcp0 : float * float;
  vias0 : int;
  e0 : int;
  v0 : int;
  asg : Cpla_route.Assignment.t;  (** kept for {!replay_vias} *)
  engine : Cpla_timing.Incremental.t;
  released : int array;
}

let initial path =
  let open Cpla_route in
  let config = config path in
  let graph, nets = Inputs.load_gr path in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  let engine = Cpla_timing.Incremental.create asg in
  let released = Cpla_timing.Incremental.select engine ~ratio:config.Cpla.Config.critical_ratio in
  let tcp0 = Cpla_timing.Critical.avg_max_tcp asg released in
  {
    expect =
      {
        Check.wirelength = (Verify.check asg).Verify.wirelength;
        released = Check.expected_released asg ~ratio:config.Cpla.Config.critical_ratio;
        score0 = Check.score tcp0;
      };
    tcp0;
    vias0 = Cpla_grid.Graph.total_via_usage graph;
    e0 = Cpla_grid.Graph.edge_overflow graph;
    v0 = Cpla_grid.Graph.via_overflow graph;
    asg;
    engine;
    released;
  }

(* via# after optimisation.  A daemon result does not carry it, so the
   benchmark optimises its own copy of the input with the daemon's
   configuration, after the stream and untimed.  The copy runs without the
   solve cache, so it can differ from a cache-hit result in the last digits
   of a solve; the log line counts the replays whose Avg and Max(Tcp) equal
   the daemon's. *)
let replay_vias path init =
  ignore
    (Cpla.Driver.optimize_released ~config:(config path) ~engine:init.engine init.asg
       ~released:init.released);
  ( Cpla_grid.Graph.total_via_usage (Cpla_route.Assignment.graph init.asg),
    Cpla_timing.Incremental.avg_max_tcp init.engine init.released )

(* Per-job verdict: latency from the due time (None if the job never
   settled), the job's metrics if it settled done, and its status.  A
   refused or unsettled job, or one that settled anything but done, failed;
   a result the checks reject, or a job the daemon's own audit failed, is
   wrong. *)
type verdict = {
  input : int;  (** index of the job's input *)
  init : initial;
  latency : float option;
  queue_wait : float option;  (** client-side submitted -> started *)
  done_ : Cpla_serve.Job.metrics option;
  status : Check.status;
}

let judge ?corrupt init (ev : Protocol.event) =
  match (ev.Protocol.state, ev.Protocol.metrics) with
  | "done", Some m ->
      let m =
        match corrupt with
        | Some Flow.Wirelength -> { m with Cpla_serve.Job.wirelength = m.Cpla_serve.Job.wirelength + 1 }
        | Some (Flow.Unassign | Flow.Worsen) | None -> m
      in
      ( Some m,
        Check.status_of
          (Check.job init.expect ~wirelength:m.Cpla_serve.Job.wirelength
             ~released:m.Cpla_serve.Job.released
             ~score1:(Check.score (m.Cpla_serve.Job.avg_tcp, m.Cpla_serve.Job.max_tcp))) )
  | state, _ -> (
      let detail = Option.value ~default:"" ev.Protocol.detail in
      let why = Printf.sprintf "settled %s %s" state detail in
      match state with
      | "failed" when String.starts_with ~prefix:"audit:" detail -> (None, Check.Wrong [ why ])
      | _ -> (None, Check.Failed why))

let verdicts ?corrupt ~(initials : initial array) r =
  Array.map
    (fun j ->
      let input = j.arrival.Inputs.input in
      let init = initials.(input) in
      let v = { input; init; latency = None; queue_wait = None; done_ = None; status = Check.Pass } in
      match (j.refused, j.id) with
      | Some why, _ -> { v with status = Check.Failed ("refused: " ^ why) }
      | None, None -> { v with status = Check.Failed "never submitted" }
      | None, Some id -> (
          let t = times_of r.times id in
          match t.terminal with
          | None -> { v with status = Check.Failed "did not settle" }
          | Some (at, ev) ->
              let done_, status = judge ?corrupt init ev in
              {
                v with
                latency = Some (at -. j.due);
                queue_wait =
                  (match (t.submitted, t.started) with
                  | Some s, Some st -> Some (st -. s)
                  | _ -> None);
                done_;
                status;
              }))
    r.jobs
