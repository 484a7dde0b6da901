(* ---- workspace minimiser ---------------------------------------------------

   Allocation-free L-BFGS over the first [n] cells of preallocated buffers:
   the curvature memory is a ring of reusable rows instead of a cons list,
   the evaluator writes its value and gradient into caller-provided storage
   (a float returned from an unknown closure would be boxed per call), and
   every vector op is a Vec prefix variant.  The floating-point operation
   sequence mirrors the textbook list-based formulation (kept as the test
   suite's oracle) exactly, so on identical inputs the two produce
   bitwise-equal iterates up to the first pair rejected with a full ring
   (see the curvature update below). *)

module Ws = struct
  type t = {
    memory : int;
    mutable cap : int;        (* buffer capacity; grows on demand *)
    mutable g : float array;        (* current gradient *)
    mutable gt : float array;       (* line-search trial gradient *)
    mutable d : float array;        (* search direction *)
    mutable x0 : float array;       (* iterate at line-search entry *)
    mutable g0 : float array;       (* gradient at line-search entry *)
    mutable xt : float array;       (* line-search trial point *)
    mutable s_mem : float array array;  (* ring rows: x-step *)
    mutable y_mem : float array array;  (* ring rows: gradient step *)
    rho : float array;
    alpha : float array;
    fx_out : float array;     (* evaluator writes f here (cell 0) *)
    (* results of the last [minimize] *)
    mutable f : float;
    mutable grad_norm : float;
    mutable iterations : int;
    mutable converged : bool;
  }

  let create ?(memory = 8) () =
    if memory < 1 then invalid_arg "Lbfgs.Ws.create: memory must be >= 1";
    {
      memory;
      cap = 0;
      g = [||];
      gt = [||];
      d = [||];
      x0 = [||];
      g0 = [||];
      xt = [||];
      s_mem = Array.make memory [||];
      y_mem = Array.make memory [||];
      rho = Array.make memory 0.0;
      alpha = Array.make memory 0.0;
      fx_out = Array.make 1 0.0;
      f = 0.0;
      grad_norm = 0.0;
      iterations = 0;
      converged = false;
    }

  let reserve ws n =
    if n > ws.cap then
      begin
        (* amortised growth: the only sanctioned allocation under the
           zero-alloc entry points, doubling so steady-state solves never
           re-enter this branch *)
        let cap = max n (max 16 (2 * ws.cap)) in
        ws.g <- Array.make cap 0.0;
        ws.gt <- Array.make cap 0.0;
        ws.d <- Array.make cap 0.0;
        ws.x0 <- Array.make cap 0.0;
        ws.g0 <- Array.make cap 0.0;
        ws.xt <- Array.make cap 0.0;
        for i = 0 to ws.memory - 1 do
          ws.s_mem.(i) <- Array.make cap 0.0;
          ws.y_mem.(i) <- Array.make cap 0.0
        done;
        ws.cap <- cap
      end [@cpla.allow "alloc-in-kernel"]

  (* Ring index of the [k]-th newest pair when the newest lives at
     [head - 1]; hoisted to top level so [direction_ws] closes over
     nothing. *)
  let ring_slot memory head k = (head - 1 - k + (2 * memory)) mod memory
  [@@cpla.zero_alloc]

  (* Two-loop recursion into [ws.d]; the ring holds [count] pairs, newest at
     slot [head - 1]: newest pair first, gamma scaling from the newest
     pair, reverse pass oldest first, final negation. *)
  let direction_ws ws ~n ~head ~count =
    Vec.copy_n n ws.g ws.d;
    for k = 0 to count - 1 do
      let i = ring_slot ws.memory head k in
      let a = ws.rho.(i) *. Vec.dot_n n ws.s_mem.(i) ws.d in
      ws.alpha.(i) <- a;
      Vec.axpy_n ~alpha:(-.a) n ws.y_mem.(i) ws.d
    done;
    if count > 0 then begin
      let i0 = ring_slot ws.memory head 0 in
      let yy = Vec.dot_n n ws.y_mem.(i0) ws.y_mem.(i0) in
      if yy > 0.0 then Vec.scale_n (Vec.dot_n n ws.s_mem.(i0) ws.y_mem.(i0) /. yy) n ws.d
    end;
    for k = count - 1 downto 0 do
      let i = ring_slot ws.memory head k in
      let beta = ws.rho.(i) *. Vec.dot_n n ws.y_mem.(i) ws.d in
      Vec.axpy_n ~alpha:(ws.alpha.(i) -. beta) n ws.s_mem.(i) ws.d
    done;
    Vec.scale_n (-1.0) n ws.d
  [@@cpla.zero_alloc]

  (* [eval x grad_out] must write f(x) into [ws.fx_out.(0)] and ∇f(x) into
     [grad_out] (first [n] cells); [x] is updated in place. *)
  let minimize ws ~n ?(max_iter = 500) ?(grad_tol = 1e-6) ~eval x =
    if n > Array.length x then invalid_arg "Lbfgs.Ws.minimize: x shorter than n";
    reserve ws n;
    eval x ws.g;
    let fx = ref ws.fx_out.(0) in
    let head = ref 0 and count = ref 0 in
    let iter = ref 0 in
    let converged = ref (Vec.norm_inf_n n ws.g <= grad_tol) in
    while (not !converged) && !iter < max_iter do
      direction_ws ws ~n ~head:!head ~count:!count;
      let slope = Vec.dot_n n ws.d ws.g in
      let slope =
        if slope < 0.0 then slope
        else begin
          (* non-descent direction from stale curvature: fall back to -g *)
          Vec.copy_n n ws.g ws.d;
          Vec.scale_n (-1.0) n ws.d;
          -.Vec.dot_n n ws.g ws.g
        end
      in
      let f0 = !fx in
      Vec.copy_n n x ws.x0;
      Vec.copy_n n ws.g ws.g0;
      let step = ref 1.0 and accepted = ref false and tries = ref 0 in
      while (not !accepted) && !tries < 30 do
        Vec.copy_n n ws.x0 ws.xt;
        Vec.axpy_n ~alpha:!step n ws.d ws.xt;
        eval ws.xt ws.gt;
        let value = ws.fx_out.(0) in
        if value <= f0 +. (1e-4 *. !step *. slope) then begin
          Vec.copy_n n ws.xt x;
          fx := value;
          Vec.copy_n n ws.gt ws.g;
          accepted := true
        end
        else begin
          step := !step *. 0.5;
          incr tries
        end
      done;
      if not !accepted then converged := true (* line search stalled: local flat *)
      else begin
        (* with a full ring, slot [head] holds the oldest kept pair: a
           rejected candidate still overwrites its s and y (not its rho) *)
        let i = !head in
        Vec.sub_n n x ws.x0 ws.s_mem.(i);
        Vec.sub_n n ws.g ws.g0 ws.y_mem.(i);
        let sy = Vec.dot_n n ws.s_mem.(i) ws.y_mem.(i) in
        if sy > 1e-12 then begin
          ws.rho.(i) <- 1.0 /. sy;
          head := (!head + 1) mod ws.memory;
          count := min (!count + 1) ws.memory
        end;
        if Vec.norm_inf_n n ws.g <= grad_tol then converged := true
      end;
      incr iter
    done;
    ws.f <- !fx;
    ws.grad_norm <- Vec.norm_inf_n n ws.g;
    ws.iterations <- !iter;
    ws.converged <- !converged
  [@@cpla.zero_alloc]

  let fx_out ws = ws.fx_out
  let f ws = ws.f
  let grad_norm ws = ws.grad_norm
  let iterations ws = ws.iterations
  let converged ws = ws.converged
end
