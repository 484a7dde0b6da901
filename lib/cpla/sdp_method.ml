open Cpla_sdp

let build_problem (f : Formulation.t) =
  let x_base = Array.make (Array.length f.Formulation.vars) 0 in
  let next = ref 0 in
  Array.iteri
    (fun vi v ->
      x_base.(vi) <- !next;
      next := !next + Array.length v.Formulation.cands)
    f.Formulation.vars;
  let slack_base = !next in
  let dim = slack_base + Array.length f.Formulation.cap_rows in
  let index vi ci = x_base.(vi) + ci in
  (* Normalise T to unit scale: Elmore costs are in the thousands while the
     augmented-Lagrangian penalty starts at O(10), and an unscaled objective
     would crush the feasibility terms.  Scaling the objective does not
     change the relaxation's argmin. *)
  let scale =
    let m = ref 1e-12 in
    Array.iter
      (fun (v : Formulation.var) ->
        Array.iter (fun ts -> m := Float.max !m (Float.abs ts)) v.Formulation.ts)
      f.Formulation.vars;
    Array.iter
      (fun (p : Formulation.pair) ->
        Array.iteri
          (fun ca row ->
            Array.iteri
              (fun cb tv ->
                m := Float.max !m (Float.abs (tv +. p.Formulation.lambda.(ca).(cb))))
              row)
          p.Formulation.tv)
      f.Formulation.pairs;
    !m
  in
  (* T: diagonal ts, off-diagonal (tv + λ)/2 so that ⟨T,X⟩ charges tv + λ
     against the y entry (the inner product doubles off-diagonals). *)
  let cost = ref [] in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      Array.iteri
        (fun ci ts ->
          cost := { Problem.i = index vi ci; j = index vi ci; v = ts /. scale } :: !cost)
        v.Formulation.ts)
    f.Formulation.vars;
  Array.iter
    (fun (p : Formulation.pair) ->
      Array.iteri
        (fun ca row ->
          Array.iteri
            (fun cb tv ->
              let i = index p.Formulation.a ca and j = index p.Formulation.b cb in
              let lo = min i j and hi = max i j in
              if lo <> hi then begin
                let v = (tv +. p.Formulation.lambda.(ca).(cb)) /. (2.0 *. scale) in
                if v <> 0.0 then cost := { Problem.i = lo; j = hi; v } :: !cost
              end)
            row)
        p.Formulation.tv)
    f.Formulation.pairs;
  (* (4b): Σ_j x_ij = 1 per segment. *)
  let constraints = ref [] in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      let terms =
        Array.to_list
          (Array.mapi (fun ci _ -> { Problem.i = index vi ci; j = index vi ci; v = 1.0 }) v.Formulation.cands)
      in
      constraints := { Problem.terms; b = 1.0 } :: !constraints)
    f.Formulation.vars;
  (* (4c) with a PSD slack: Σ x + s = limit. *)
  Array.iteri
    (fun ri (r : Formulation.cap_row) ->
      let slack = slack_base + ri in
      let terms =
        { Problem.i = slack; j = slack; v = 1.0 }
        :: List.map
             (fun (vi, ci) -> { Problem.i = index vi ci; j = index vi ci; v = 1.0 })
             r.Formulation.members
      in
      constraints := { Problem.terms; b = float_of_int r.Formulation.limit } :: !constraints)
    f.Formulation.cap_rows;
  (Problem.create ~dim ~cost:!cost ~constraints:!constraints, index)

type solution = { frac : float array array; factor : float array }

let fractional_table (f : Formulation.t) index (result : Solver.result) =
  Array.mapi
    (fun vi (v : Formulation.var) ->
      Array.mapi
        (fun ci _ ->
          let x = result.Solver.x_diag.(index vi ci) in
          Float.max 0.0 (Float.min 1.0 x))
        v.Formulation.cands)
    f.Formulation.vars

let flat_factor (result : Solver.result) =
  let open Cpla_numeric in
  let rows = result.Solver.v.Mat.rows and cols = result.Solver.v.Mat.cols in
  Array.init (rows * cols) (fun k -> Mat.get result.Solver.v (k / cols) (k mod cols))

let solve_fractional ~options ?ws ?v0 ?(check = fun () -> ()) (f : Formulation.t) =
  if Array.length f.Formulation.vars = 0 then { frac = [||]; factor = [||] }
  else
    Cpla_obs.Span.with_ ~name:"sdp/solve"
      ~args:[ ("vars", Cpla_obs.Event.Int (Array.length f.Formulation.vars)) ]
      (fun () ->
        Cpla_obs.Metrics.incr "sdp/solves";
        check ();
        let problem, index = build_problem f in
        check ();
        let result = Solver.solve ~options ?ws ?v0 problem in
        (* A warm seed far from this formulation's basin can leave the
           augmented Lagrangian stalled at an infeasible point; treat a
           badly violated (or non-finite) final residual as a stall and
           retry from the deterministic cold start. *)
        let stalled (r : Solver.result) =
          (not (Float.is_finite r.Solver.max_violation))
          || r.Solver.max_violation > 100.0 *. options.Solver.feas_tol
        in
        let result =
          match v0 with
          | Some _ when stalled result ->
              Cpla_obs.Metrics.incr "sdp/warm-retries";
              check ();
              Solver.solve ~options ?ws problem
          | _ -> result
        in
        { frac = fractional_table f index result; factor = flat_factor result })
