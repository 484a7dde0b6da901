(* refkernel.exe N: run the host-speed reference kernel N times and print the
   CPU seconds of each run on one line.  See calib.ml. *)

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  print_endline (String.concat " " (List.init n (fun _ -> Printf.sprintf "%.6f" (Cplabench.Calib.sample ()))))
