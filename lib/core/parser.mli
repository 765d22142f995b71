(** Parser for the text circuit format emitted by {!Printer} — circuit
    (de)serialisation. [parse] is a left inverse of [Printer.to_string]
    up to float formatting: [print (parse (print b)) = print b], a
    property the test suite checks on random circuits. *)

val parse : string -> Circuit.b
(** Raises {!Errors.Error} [(Invalid _)] on malformed input, including a
    box that calls itself directly or through other boxes
    ({!Circuit.check_acyclic}). *)

val parse_file : string -> Circuit.b

val parse_gate_line : string -> Gate.t

val parse_arity : string -> Wire.endpoint list
