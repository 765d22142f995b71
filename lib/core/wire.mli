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

(** Maps from wire ids (any int, negative ones too) to non-negative
    ints, for the per-gate bookkeeping of the circuit builder, the
    optimizer stage, {!Circuit.validate} and the simulators' classical
    wires. Open addressing with linear probing: {!Itbl.find},
    {!Itbl.replace} and {!Itbl.remove} cost O(1) expected and allocate
    nothing once the arrays are large enough (they double at half load).
    Iteration order is unspecified, so users count or sort.

    The builder's live map stores each wire's type and an insertion
    stamp. When a captured body leaks several wires, the one the error
    names is the first in the order the earlier chained table visited
    them. That table's bucket count [B] was 64 after a reset and doubled
    whenever its size exceeded [2B]. It visited buckets in ascending
    [Hashtbl.hash w land (B - 1)], and inside a bucket the most recently
    inserted wire came first. Updating a present wire kept its place. A
    nested capture's exit re-inserted the enclosing scope's wires in
    that visiting order, which both re-stamped them and reset [B]. *)
module Itbl : sig
  type wire := t
  type t

  val create : int -> t
  (** An empty map with room for half the given number of keys, which
      must be a power of two. *)

  val length : t -> int

  val find : t -> wire -> int
  (** The value bound to the wire, or [-1] if there is none. *)

  val mem : t -> wire -> bool

  val replace : t -> wire -> int -> unit
  (** Bind the wire to a value, which must be [>= 0]. *)

  val remove : t -> wire -> unit
  (** Unbind the wire, if it is bound. *)

  val copy : t -> t
  val fold : (wire -> int -> 'a -> 'a) -> t -> 'a -> 'a
end

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
