(** Classical (boolean) simulation: the paper's [run_classical_generic]
    (§4.4.5). Circuits whose gates act classically on basis states —
    not/X with any controls, swap, init, assertive term, measurement,
    classical logic — simulate in linear time with one boolean per wire.
    "Especially useful in testing oracles": the test suite validates every
    arithmetic and oracle circuit against its classical specification
    through this module. *)

open Quipper

type state = Drive.Cenv.t
(** One boolean per live wire, quantum or classical. *)

val create : ?seed:int -> unit -> state
(** A fresh empty state; the seed is ignored (nothing here is random). *)

val read : state -> Wire.t -> bool
val write : state -> Wire.t -> bool -> unit

val bindings : state -> (Wire.t * bool) list
(** All live wire values, sorted by wire id — the classical analogue of a
    state observation for the {!Backend} interface. *)

val apply_gate : state -> Gate.t -> unit
(** Raises [Simulation _] on gates with no classical action (H, W,
    rotations) and on subroutine calls (inline first). *)

val run_fun :
  ?seed:int -> in_:('b, 'q, 'c) Qdata.t -> 'b -> ('q -> 'r Circ.t) -> state * 'r
(** Run a circuit-producing function on boolean inputs, evaluating every
    gate as it is emitted. Dynamic lifting works: classical values are
    always available. *)

val measure_and_read : state -> ('b, 'q, 'c) Qdata.t -> 'q -> 'b
(** Read the boolean value of every leaf. *)

val run_oracle :
  in_:('b, 'q, 'c) Qdata.t ->
  out:('b2, 'q2, 'c2) Qdata.t ->
  'b ->
  ('q -> 'q2 Circ.t) ->
  'b2
(** Run a classical circuit-producing function as a boolean function. *)

val run_circuit : ?seed:int -> Circuit.b -> bool list -> state
(** Walk an already-generated (hierarchical) circuit on given input
    booleans. *)
