(** Wires: the horizontal lines of a circuit diagram.

    A wire is identified by an integer and carries either quantum or
    classical data — Quipper's extended circuit model freely mixes the two
    (paper §4.2.3). Wire identities are stable for the lifetime of a
    circuit-building run: a measurement keeps the wire id but flips its
    type from {!Q} to {!C}.

    {!qubit} and {!bit} are the typed handles user programs hold,
    separating quantum from classical wires in the host type system (the
    paper's [Qubit] vs [Bit], §4.3.2). Their constructors are exposed so
    that run functions and tests can relate handles to raw wires; user
    code should treat them as abstract and never forge them. *)

type t = int
(** A wire identifier. *)

(** The two kinds of data a wire can carry. *)
type ty = Q | C

val ty_name : ty -> string

type endpoint = { wire : t; ty : ty }
(** A typed wire occurrence, as used in circuit aritys and shape
    witnesses. *)

val qw : t -> endpoint
(** Quantum endpoint on the given wire. *)

val cw : t -> endpoint
(** Classical endpoint on the given wire. *)

type qubit = Qubit of t
(** A handle to a quantum wire. *)

type bit = Bit of t
(** A handle to a classical wire. *)

val qubit_wire : qubit -> t
val bit_wire : bit -> t

val pp_endpoint : Format.formatter -> endpoint -> unit
val pp_qubit : Format.formatter -> qubit -> unit
val pp_bit : Format.formatter -> bit -> unit

val mem : t -> t list -> bool
(** [List.mem] on wire ids, with integer equality. *)

(** Hash tables keyed by wire id. They hash with {!Hashtbl.hash}, so
    they iterate in the same order as a polymorphic [Hashtbl] fed the
    same operations. *)
module Tbl : Hashtbl.S with type key = t

(** Reusable scratch sets of wire ids for the per-call checks on wide
    gates: {!Marks.clear} costs O(1), {!Marks.find} and {!Marks.set}
    O(1) expected, and nothing is allocated once the arrays are large
    enough. Each marked wire carries a small tag, 1 to 3, so one pass
    can tell apart, say, a call's inputs from its other wires. *)
module Marks : sig
  type wire := t
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Unmark every wire. *)

  val find : t -> wire -> int
  (** The wire's tag, or 0 if it is not marked. *)

  val set : t -> wire -> int -> unit
  (** Mark the wire with a tag in 1..3, replacing any earlier tag. *)

  val call : t -> inputs:wire list -> outputs:wire list -> unit
  (** Unmark every wire, then tag a call's inputs 1 and its outputs 2;
      a wire that passes through the call gets 3. *)
end
