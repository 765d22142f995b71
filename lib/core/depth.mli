(** Circuit depth — the parallel-time axis of resource estimation, a
    native-int projection of {!Resource}'s per-wire clock.

    A call to a boxed subcircuit advances every touched wire by the
    callee's memoized depth, which serialises the callee as a block: an
    upper bound (exact on flat circuits; [depth (Circuit.inline b)] when
    inlining is feasible gives the tight figure, and the test suite checks
    the bound). Initialisations, terminations and measurements count one
    time step on their wire; comments are free. *)

val depth : Circuit.b -> int
(** Raises {!Errors.Error} [(Invalid _)] past [max_int]. *)
