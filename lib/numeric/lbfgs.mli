(** Limited-memory BFGS minimisation.

    The inner solver of the Burer–Monteiro SDP engine: minimises a smooth
    unconstrained objective given a value-and-gradient oracle.  Two-loop
    recursion with Armijo backtracking; deterministic, allocation-light. *)

(** Workspace minimiser: all scratch state — the curvature-pair ring,
    line-search buffers, the gradient — lives in a reusable workspace, and
    the evaluator writes into caller storage, so a solve allocates nothing
    on the hot path.  Performs the same floating-point operations in the
    same order as the list-based textbook formulation the test suite keeps
    as its oracle: identical inputs give bitwise-identical iterates, up to
    the first curvature pair rejected (s·y <= 1e-12) while the memory is
    full.  Such a rejected pair is written over the oldest kept pair's
    vectors (its rho stays), so the iterates then drift from the
    reference's. *)
module Ws : sig
  type t

  val create : ?memory:int -> unit -> t
  (** Empty workspace; buffers grow on first use.  [memory] is the number
      of curvature pairs retained (default 8). *)

  val reserve : t -> int -> unit
  (** Pre-size every buffer for problems of dimension <= n. *)

  val minimize :
    t ->
    n:int ->
    ?max_iter:int ->
    ?grad_tol:float ->
    eval:(float array -> float array -> unit) ->
    float array ->
    unit
  (** [minimize ws ~n ~eval x] minimises over the first [n] cells of [x],
      updating [x] in place.  [eval x grad_out] must write the objective
      into [fx_out ws] (cell 0) and the gradient into [grad_out.(0..n-1)].
      [grad_tol] is the stopping threshold on the gradient infinity norm
      (default 1e-6); [max_iter] defaults to 500.  Results are left in the
      accessors below. *)

  val fx_out : t -> float array
  (** The 1-cell buffer the evaluator writes the objective value into. *)

  (** Scalar results of the last [minimize] (the SDP kernel tracks its own
      convergence state; the tests compare these with the reference). *)

  val f : t -> float
  val grad_norm : t -> float
  val iterations : t -> int
  val converged : t -> bool
end
