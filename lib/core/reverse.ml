(** Circuit-level reversal.

    [Circ.reverse_fun] reverses a circuit-producing *function*; this module
    reverses hierarchical circuits ({!Circuit.reverse} reverses flat ones).
    Per §4.2.2 of the paper, circuits containing qubit initialisations and
    assertive terminations are unitary between the asserted subspaces, so
    they reverse without complaint: [Init] and [Term] swap roles. Measurements, discards
    and classical gates have no inverse and raise [Errors.Error
    (Not_reversible _)]. *)

(** Reverse a boxed circuit. Subroutine definitions are kept as-is — calls
    in the reversed main circuit carry the [inv] flag, so the namespace is
    shared between a circuit and its reverse, preserving hierarchy. *)
let bcircuit (b : Circuit.b) : Circuit.b = { b with main = Circuit.reverse b.main }
