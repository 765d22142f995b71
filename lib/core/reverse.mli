(** Circuit-level reversal (paper §4.2.2, §4.4.3).

    [Circ.reverse_fun] reverses a circuit-producing {e function}; this
    module reverses hierarchical circuits ({!Circuit.reverse} reverses
    flat ones).
    Circuits containing qubit initialisations and assertive terminations
    reverse without complaint — [Init] and [Term] swap roles. Measurements,
    discards and classical gates raise [Not_reversible]. *)

val bcircuit : Circuit.b -> Circuit.b
(** Reverse a boxed circuit. Subroutine definitions are kept as-is: calls
    in the reversed main circuit carry the inverse flag, so the namespace
    is shared between a circuit and its reverse. *)
