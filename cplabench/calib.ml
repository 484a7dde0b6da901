(* Host speed.  The shared hosts this benchmark runs on change speed for
   minutes at a time, and CPU time moves with them: the reopt-dense jobs
   of one seed took 1.89 CPU seconds each, and 2.9-4.1 a quarter of an
   hour later, with the same code and no steal time.  So each run also
   times a fixed reference kernel of its own, between the steps it
   measures, and scales each step's CPU time by [nominal_s /. median of the
   samples around it]: CPU seconds on a host of nominal speed.

   The kernel is plain OCaml with no call into the product, so no change to
   the product moves it.  It mixes what the product's jobs do: a
   shortest-path search over a grid with a binary heap (maze routing), small
   dense float products (the SDP kernel) and short-lived allocation into a
   balanced tree (everything). *)

(* The host speed the scaled times refer to: one [kernel] in 40 ms of CPU,
   about what a shared 2-vCPU Xeon VM gives in its fast phases. *)
let nominal_s = 0.040

let grid = 320

(* Edge costs of the grid, from a fixed linear congruential sequence. *)
let costs =
  lazy
    (let s = ref 7 in
     Array.init (grid * grid) (fun _ ->
         s := ((!s * 1103515245) + 12345) land 0x3fffffff;
         1 + ((!s lsr 10) mod 16)))

let dijkstra () =
  let cost = Lazy.force costs in
  let n = grid * grid in
  let dist = Array.make n max_int in
  let heap_d = Array.make (4 * n) 0 and heap_v = Array.make (4 * n) 0 and size = ref 0 in
  let swap i j =
    let d = heap_d.(i) and v = heap_v.(i) in
    heap_d.(i) <- heap_d.(j);
    heap_v.(i) <- heap_v.(j);
    heap_d.(j) <- d;
    heap_v.(j) <- v
  in
  let push d v =
    let i = ref !size in
    incr size;
    heap_d.(!i) <- d;
    heap_v.(!i) <- v;
    while !i > 0 && heap_d.((!i - 1) / 2) > heap_d.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let d = heap_d.(0) and v = heap_v.(0) in
    decr size;
    swap 0 !size;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && heap_d.(l) < heap_d.(!m) then m := l;
      if l + 1 < !size && heap_d.(l + 1) < heap_d.(!m) then m := l + 1;
      if !m = !i then sifting := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    (d, v)
  in
  dist.(0) <- 0;
  push 0 0;
  while !size > 0 do
    let d, v = pop () in
    if d <= dist.(v) then begin
      let relax u =
        let nd = d + cost.(u) in
        if nd < dist.(u) then begin
          dist.(u) <- nd;
          push nd u
        end
      in
      let x = v mod grid in
      if x > 0 then relax (v - 1);
      if x < grid - 1 then relax (v + 1);
      if v >= grid then relax (v - grid);
      if v < n - grid then relax (v + grid)
    end
  done;
  dist.(n - 1)

let dim = 64

let products () =
  let a = Array.init (dim * dim) (fun i -> float_of_int (i mod 17) *. 0.25) in
  let b = Array.init (dim * dim) (fun i -> float_of_int (i mod 13) *. 0.5) in
  let c = Array.make (dim * dim) 0.0 in
  for _ = 1 to 16 do
    for i = 0 to dim - 1 do
      for k = 0 to dim - 1 do
        let aik = a.((i * dim) + k) in
        for j = 0 to dim - 1 do
          c.((i * dim) + j) <- c.((i * dim) + j) +. (aik *. b.((k * dim) + j))
        done
      done
    done
  done;
  c.(0)

module Tree = Map.Make (Int)

let allocation () =
  let m = ref Tree.empty in
  for i = 1 to 40_000 do
    m := Tree.add ((i * 7919) land 0xfffff) (float_of_int i) !m
  done;
  Tree.cardinal !m

let kernel () =
  ignore (Sys.opaque_identity (dijkstra ()));
  ignore (Sys.opaque_identity (products ()));
  ignore (Sys.opaque_identity (allocation ()))

(* CPU seconds of one kernel run. *)
let sample () =
  ignore (Lazy.force costs);
  let t0 = Sys.time () in
  kernel ();
  Sys.time () -. t0

(* ---- CPU pinning ---------------------------------------------------------- *)

(* The host's vCPUs differ in speed, by a quarter at a time on a 2-vCPU
   Xeon VM shared with other tenants, and a single-threaded job stays on
   whichever one the scheduler gave it.  A kernel sample taken on the other
   vCPU then says nothing about the job: the same routing call, repeated,
   spread by a CV of 0.11 unpinned and 0.05 pinned, and its time followed
   the kernel's only when both ran on one vCPU.  So the work is pinned
   with taskset(1), one vCPU per worker, and the kernel runs pinned on
   each of those vCPUs, when the host has taskset and more than one
   vCPU. *)

(* Whether taskset can pin a process to [cpu] here. *)
let can_pin cpu = Sys.command (Printf.sprintf "taskset -c %d true >/dev/null 2>&1" cpu) = 0

(* The vCPUs work with [workers] domains is pinned to: the last allowed one
   for a single worker (the first tends to take the host's interrupts),
   all of them otherwise; None when pinning is not possible. *)
let work_cpus ~workers =
  match List.rev (Proc.allowed_cpus ()) with
  | last :: _ :: _ as all when can_pin last -> Some (if workers = 1 then [ last ] else List.rev all)
  | _ -> None

let cpu_list cpus = String.concat "," (List.map string_of_int cpus)

(* The argument vector [argv] run pinned to [cpus]. *)
let pinned cpus argv =
  match cpus with
  | Some cpus -> Array.append [| "taskset"; "-c"; cpu_list cpus |] argv
  | None -> argv

(* [f ()] with every thread of this process, and so the processes it
   starts, pinned to [cpus]. *)
let with_pinned cpus f =
  let set cpus =
    let cmd = Printf.sprintf "taskset -a -c -p %s %d >/dev/null" (cpu_list cpus) (Unix.getpid ()) in
    if Sys.command cmd <> 0 then failwith ("failed: " ^ cmd)
  in
  match cpus with
  | None -> f ()
  | Some cpus ->
      let all = Proc.allowed_cpus () in
      set cpus;
      Fun.protect ~finally:(fun () -> set all) f

(* ---- samples ------------------------------------------------------------- *)

(* The samples of a run, and the factor that scales its CPU times to the
   nominal host speed.  The kernel runs in child processes (refkernel.exe,
   built beside the benchmark), so its memory never counts in the
   benchmark's own peak_rss_mb.  Given the vCPUs the work is pinned to, it
   runs pinned on each of them at once, as the work's domains do; then
   [pinned] says its samples describe the vCPUs the work ran on. *)
type t = { argvs : string array list; pinned : bool; mutable samples : float list }

let create cpus =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "refkernel.exe" in
  {
    argvs =
      (match cpus with
      | Some cpus -> List.map (fun c -> pinned (Some [ c ]) [| exe |]) cpus
      | None -> [ [| exe |] ]);
    pinned = cpus <> None;
    samples = [];
  }

(* Run the kernel [n] times in each process; record and return the samples. *)
let take t n =
  let outs =
    List.map
      (fun argv ->
        let argv = Array.append argv [| string_of_int n |] in
        Unix.open_process_args_in argv.(0) argv)
      t.argvs
  in
  let read out =
    let text =
      Fun.protect
        ~finally:(fun () -> ignore (Unix.close_process_in out))
        (fun () -> In_channel.input_all out)
    in
    match List.filter_map float_of_string_opt (String.split_on_char ' ' (String.trim text)) with
    | xs when List.length xs = n -> xs
    | _ -> failwith ("reference kernel printed " ^ String.escaped text)
  in
  let xs = List.concat_map read outs in
  t.samples <- List.rev_append xs t.samples;
  xs

let median_s t = Report.median t.samples

(* The factor that scales CPU seconds measured beside [samples] to the
   nominal host speed. *)
let scale_of samples = Report.ratio nominal_s (Report.median samples)

(* ... beside the run's samples. *)
let scale t = scale_of t.samples

(* The factor for a step between the samples [before] and [after]: pinned,
   those samples describe the vCPUs the step ran on; unpinned, they may
   come from another vCPU, so the run's median serves. *)
let scale_between t before after = if t.pinned then scale_of (before @ after) else scale t
