(* The benchmark's own tests:
   - the metric and workload names it prints are those BENCHMARK.json declares;
   - a tiny-size run of each workload, untraced and traced, passes every check;
   - each check catches a corrupted result: a released segment left
     unassigned, released nets moved so that the score rises, and a daemon
     result with another wirelength;
   - three designs on which Max(Tcp) rises while the score falls pass.
   Usage: selftest.exe BENCHMARK.json CPLA_BINARY *)

open Cplabench
module Json = Cpla_net.Json

let failures = ref 0

let check name ok detail =
  Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name
    (if ok || detail = "" then "" else ": " ^ detail);
  if not ok then incr failures

let declared json key =
  match Json.member key json with
  | Some (Json.Arr items) ->
      List.filter_map
        (fun item ->
          match (Option.bind (Json.member "name" item) Json.as_string, Json.member "unit" item) with
          | Some name, Some u -> Some (name ^ " " ^ Option.value ~default:"" (Json.as_string u))
          | Some name, None -> Some name
          | None, _ -> None)
        items
  | _ -> []

let names_match bench_json =
  let json =
    match Json.parse (Inputs.read_file bench_json) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let ours l = List.map (fun (n, u) -> n ^ " " ^ u) l in
  let show l = String.concat ", " l in
  check "end_to_end metrics match BENCHMARK.json"
    (declared json "end_to_end" = ours Report.end_to_end)
    (show (declared json "end_to_end"));
  check "per_layer metrics match BENCHMARK.json"
    (declared json "per_layer" = ours Report.per_layer)
    (show (declared json "per_layer"));
  check "workloads match BENCHMARK.json" (declared json "workloads" = Report.workloads)
    (show (declared json "workloads"))

let ctx ?corrupt ~dir ~cpla ~trace () =
  {
    Workloads.seed = 3;
    seconds = 0.1;
    trace;
    size = Workloads.Tiny;
    dir;
    cpla;
    log = ignore;
    corrupt;
  }

let tiny_runs ~dir ~cpla =
  List.iter
    (fun (w, trace) ->
      let name = Printf.sprintf "tiny %s%s passes" w (if trace then " (traced)" else "") in
      match Workloads.run (ctx ~dir ~cpla ~trace ()) w with
      | r ->
          let printed = List.length (Report.select ~trace r.Report.metrics) in
          check name
            (r.Report.correct && r.Report.failed = 0 && r.Report.attempted >= 1 && printed > 0)
            (String.concat "; " r.Report.notes)
      | exception e -> check name false (Printexc.to_string e))
    [
      ("flow-congested", false);
      ("flow-congested", true);
      ("reopt-dense", false);
      ("reopt-dense", true);
      ("daemon-mix", false);
      ("daemon-mix", true);
    ]

let contains ~sub s =
  let k = String.length sub in
  let rec at i = i + k <= String.length s && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* Each corruption makes a tiny run incorrect, through the check named by
   [mentions].  Moving nets to their slowest layers cannot raise the score
   of a design whose released nets already sit there, so that corruption
   need not catch every job. *)
let corruption_caught ~dir ~cpla (workload, corrupt, mentions) =
  let r = Workloads.run (ctx ~corrupt ~dir ~cpla ~trace:false ()) workload in
  let name = Printf.sprintf "%s with a corrupted result (%s)" workload mentions in
  let every = corrupt <> Flow.Worsen in
  check (name ^ " is incorrect")
    ((not r.Report.correct)
    && r.Report.failed >= 1
    && ((not every) || r.Report.failed = r.Report.attempted))
    (Printf.sprintf "correct %b attempted %d failed %d" r.Report.correct r.Report.attempted
       r.Report.failed);
  check (name ^ " names the check")
    (r.Report.notes <> [] && List.for_all (contains ~sub:mentions) r.Report.notes)
    (String.concat "; " r.Report.notes)

(* Designs on which a correct run ends with a higher Max(Tcp) than it
   began, while the driver's score avg + 0.05 max falls: 24x24, 4 layers,
   capacity 3, as (nets, critical ratio, workers, generator seed). *)
let max_rises = [ (900, 0.05, 2, 4); (900, 0.05, 2, 14); (800, 0.1, 1, 3) ]

let max_rise_passes ~dir (nets, ratio, workers, seed) =
  let spec =
    {
      Cpla_route.Synth.default_spec with
      Cpla_route.Synth.name = Printf.sprintf "maxrise%d" seed;
      width = 24;
      height = 24;
      num_layers = 4;
      capacity = 3;
      num_nets = nets;
      seed;
    }
  in
  let path = Inputs.write_gr ~name:spec.Cpla_route.Synth.name ~dir spec in
  let config = { Cpla.Config.default with Cpla.Config.critical_ratio = ratio; workers } in
  let o = Flow.run_job ~config (Flow.Gr { name = spec.Cpla_route.Synth.name; path }) in
  let name =
    Printf.sprintf "Max(Tcp) rises, score falls (%d nets, ratio %g, %d workers, seed %d): passes"
      nets ratio workers seed
  in
  check name
    (o.Flow.status = Check.Pass
    && snd o.Flow.tcp1 > snd o.Flow.tcp0
    && Check.score o.Flow.tcp1 < Check.score o.Flow.tcp0)
    (Printf.sprintf "%s; max %.2f -> %.2f, score %.2f -> %.2f" (Check.describe o.Flow.status)
       (snd o.Flow.tcp0) (snd o.Flow.tcp1) (Check.score o.Flow.tcp0) (Check.score o.Flow.tcp1))

let () =
  match Sys.argv with
  | [| _; bench_json; cpla |] ->
      let dir = Filename.concat ".bench_work" (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
      if not (Sys.file_exists ".bench_work") then Sys.mkdir ".bench_work" 0o755;
      Sys.mkdir dir 0o755;
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        (fun () ->
          names_match bench_json;
          tiny_runs ~dir ~cpla;
          List.iter (corruption_caught ~dir ~cpla)
            [
              ("flow-congested", Flow.Unassign, "unassigned");
              ("reopt-dense", Flow.Worsen, "score");
              ("daemon-mix", Flow.Wirelength, "wirelength changed");
            ];
          List.iter (max_rise_passes ~dir) max_rises);
      if !failures > 0 then exit 1
  | _ ->
      prerr_endline "usage: selftest.exe BENCHMARK.json CPLA_BINARY";
      exit 2
