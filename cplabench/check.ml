(* Output checks applied to every job.  They gate only on what CPLA
   guarantees:
   - the audit finds no structural violation (capacity overflow is a
     metric, not a check: post-mapping is known to add some on congested
     designs);
   - optimisation leaves the routed wirelength unchanged, since it only
     moves segments between layers;
   - the job optimised the released-net count its selection gives;
   - the driver's objective over the released nets, avg + 0.05 max, ends
     no higher than it began: the outer loop keeps a sweep only if that
     score does not rise.  Max(Tcp) alone may rise on a correct run.
   A job that produces no output (it raised, was shed, timed out or never
   settled) counts as failed; a job whose output fails a check also makes
   the run incorrect.  Neither aborts the run. *)

open Cpla_route

(* The driver's objective (Driver.score), over Avg and Max(Tcp) recomputed
   from scratch. *)
let score (avg, max) = avg +. (0.05 *. max)

let structural (report : Verify.report) =
  List.filter_map
    (fun v ->
      match v with
      | Verify.Edge_overflow _ | Verify.Via_overflow _ -> None
      | Verify.Unassigned_segment _ | Verify.Direction_mismatch _ | Verify.Pin_unreachable _
      | Verify.Ledger_mismatch _ ->
          Some (Format.asprintf "%a" Verify.pp_violation v))
    report.Verify.violations

(* How many nets a selection at [ratio] releases, computed apart from the
   selection itself: the worst ceil(ratio x nets), but never a net without
   segments. *)
let expected_released asg ~ratio =
  let n = Assignment.num_nets asg in
  let routed = ref 0 in
  for i = 0 to n - 1 do
    if Array.length (Assignment.segments asg i) > 0 then incr routed
  done;
  if ratio <= 0.0 then 0 else min !routed (int_of_float (Float.ceil (ratio *. float_of_int n)))

(* What a job's output must match: the values its input gives before any
   optimisation. *)
type expect = { wirelength : int; released : int; score0 : float }

type status =
  | Pass
  | Failed of string  (** no output: counts in failed-of-attempted only *)
  | Wrong of string list  (** an output that fails the checks: the run is incorrect *)

let status_of = function [] -> Pass | problems -> Wrong problems

let describe = function
  | Pass -> "ok"
  | Failed why -> "FAILED: " ^ why
  | Wrong problems -> "WRONG: " ^ String.concat "; " problems

(* Problems of one job's output: the audit's structural violations (the
   first three, with the total), then the three invariants. *)
let job ?(violations = []) (e : expect) ~wirelength ~released ~score1 =
  let shown = List.filteri (fun i _ -> i < 3) violations in
  List.concat
    [
      (match violations with
      | [] -> []
      | v ->
          [
            Printf.sprintf "%d structural violations: %s" (List.length v)
              (String.concat "; " shown);
          ]);
      (if wirelength <> e.wirelength then
         [ Printf.sprintf "wirelength changed: %d -> %d" e.wirelength wirelength ]
       else []);
      (if released <> e.released then
         [ Printf.sprintf "released-net count %d, expected %d" released e.released ]
       else []);
      (* rounding slack: relative 1e-9 *)
      (if score1 > e.score0 +. (1e-9 *. Float.abs e.score0) then
         [ Printf.sprintf "score avg+0.05max rose: %.9g -> %.9g" e.score0 score1 ]
       else []);
    ]
