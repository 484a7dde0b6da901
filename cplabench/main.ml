(* cplabench: run one CPLA benchmark workload (or all of them) and print
   its metrics.  The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; per-job lines and
   findings go to standard error.  Normally started through run.sh, which
   builds this program and the `cpla` binary first. *)

open Cplabench

let usage =
  "main.exe --workload flow-congested|reopt-dense|daemon-mix|all [--seed N] [--seconds S] \
   [--trace 0|1] --cpla PATH [--work DIR]"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  let workload = ref "" and seed = ref Inputs.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and cpla = ref "" and work = ref ".bench_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 0: the suite designs)");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--cpla", Arg.Set_string cpla, "PATH the cpla binary (daemon-mix)");
      ("--work", Arg.Set_string work, "DIR scratch directory (default .bench_work)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "all" then Report.workloads else [ !workload ] in
  if not (List.for_all (fun w -> List.mem w Report.workloads) names) then begin
    prerr_endline usage;
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  if List.mem "daemon-mix" names && not (Sys.file_exists !cpla) then begin
    prerr_endline "daemon-mix needs --cpla PATH";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let results =
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        List.map
          (fun w ->
            let ctx =
              {
                Workloads.seed = !seed;
                seconds = !seconds;
                trace = traced;
                size = Workloads.Full;
                dir;
                cpla = !cpla;
                log = (fun l -> prerr_endline (w ^ ": " ^ l));
                corrupt = None;
              }
            in
            let r = Workloads.run ctx w in
            List.iter (fun n -> prerr_endline (w ^ ": " ^ n)) r.Report.notes;
            r)
          names)
  in
  (* One workload: its table to stderr.  all: a table per workload on
     stdout.  Either way the result object is the last line of stdout. *)
  List.iter
    (fun r ->
      let table =
        Printf.sprintf "%s (%d jobs, %d failed)\n%s" r.Report.workload r.Report.attempted
          r.Report.failed (Report.table ~trace:traced r)
      in
      if List.length results = 1 then prerr_endline table else print_endline table)
    results;
  print_endline (Report.json_line ~trace:traced results)
