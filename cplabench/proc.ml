(* What the benchmark reads from, and writes to, /proc. *)

(* procfs files report no length: read them whole *)
let read path = In_channel.with_open_text path In_channel.input_all

(* The value of field [name] in /proc/PROC/status ("self" or a pid). *)
let status_field proc name =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ n; v ] when n = name -> Some (String.trim v)
      | _ -> None)
    (String.split_on_char '\n' (read (Printf.sprintf "/proc/%s/status" proc)))

(* Peak resident set of a process, in MiB (VmHWM, "123 kB"). *)
let peak_rss_mb proc =
  match Option.map (String.split_on_char ' ') (status_field proc "VmHWM") with
  | Some (kb :: _) -> (
      match int_of_string_opt kb with
      | Some k -> float_of_int k /. 1024.0
      | None -> failwith ("unexpected VmHWM: " ^ kb))
  | Some [] | None -> failwith "no VmHWM in /proc status"

(* Reset this process's VmHWM to its current resident set, so the next
   [peak_rss_mb] reads the peak since now.  False where /proc does not
   allow it; the peak then counts from the process start. *)
let reset_peak_rss () =
  match Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5") with
  | () -> true
  | exception Sys_error _ -> false

(* CPU seconds (user + system, every thread) a live process has used so
   far: fields 14 and 15 of /proc/PID/stat, in Linux's fixed 1/100 s
   ticks.  Fields are counted after the command name's ')', since the
   name may hold spaces. *)
let cpu_s pid =
  let stat = read (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  match String.split_on_char ' ' (String.sub stat after (String.length stat - after)) with
  | _state :: rest -> (
      match List.filteri (fun i _ -> i = 10 || i = 11) rest with
      | [ utime; stime ] -> float_of_int (int_of_string utime + int_of_string stime) /. 100.0
      | _ -> failwith ("unexpected /proc stat line: " ^ stat))
  | [] -> failwith ("unexpected /proc stat line: " ^ stat)

(* The vCPUs this process may run on, from Cpus_allowed_list ("0-1,4"). *)
let allowed_cpus () =
  List.concat_map
    (fun range ->
      match List.map int_of_string_opt (String.split_on_char '-' range) with
      | [ Some a ] -> [ a ]
      | [ Some a; Some b ] -> List.init (b - a + 1) (fun i -> a + i)
      | _ -> [])
    (String.split_on_char ',' (Option.value ~default:"" (status_field "self" "Cpus_allowed_list")))
