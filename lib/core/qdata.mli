(** Shape witnesses: Quipper's [QCData] / [QShape] type classes, in OCaml
    (paper §4.3.2, §4.5).

    A witness [('b, 'q, 'c) t] relates the three versions of a data type:
    the {e parameter} version ['b] (booleans, known at circuit generation
    time), the {e quantum} version ['q] (qubits — possibly mixed with
    classical wires), and the {e classical input} version ['c] (bits).
    Haskell derives the relation by type-class induction on types; OCaml
    passes the induction explicitly as a first-class record built with the
    combinators below. Note that {!list_of} takes the length as a value:
    the length of a list is a parameter — the "shape" of the data — which
    is exactly the paper's point.

    Generic operations ([Circ.qinit], [Circ.measure], [Circ.box], ...)
    take a witness where the Haskell original takes a [QShape]
    constraint. *)

type 'l cursor = { mutable rest : 'l list }
(** The leaves a {!side}'s [take] has not read yet. *)

type ('v, 'l) side = {
  put : 'v -> 'l list -> 'l list;
      (** [put v acc]: the leaves of [v], in order, in front of [acc] *)
  take : 'l cursor -> 'v;
      (** read one value from the front of the cursor and advance it past
          the value's leaves *)
}
(** One version of a data type and its leaves: endpoints for the quantum
    and classical versions, booleans for the parameter version.

    Cost model: over a structure of [n] leaves, a [put] does O(n) work
    and allocates one cons per leaf (and the leaf's endpoint); a [take]
    does O(n) work and allocates the structure it returns, one list cell
    or array slot per leaf. Nesting copies nothing. Only a failed [take]
    re-reads leaves, to report the error {!build} describes. Building a
    witness costs about as much as one [put], so code that converts many
    values of one shape builds the witness once. *)

type ('b, 'q, 'c) t = {
  tys : Wire.ty list;  (** wire types of the leaves of the ['q] version *)
  qside : ('q, Wire.endpoint) side;
  cside : ('c, Wire.endpoint) side;
  bside : ('b, bool) side;
}

val leaves : ('v, 'l) side -> 'v -> 'l list
(** All the leaves of a value; raises [Shape_mismatch] on a list or array
    of the wrong length ("list length %d, expected %d"). *)

val build : ('v, 'l) side -> 'l list -> 'v
(** Rebuild a value from exactly as many leaves as the witness has.
    Raises [Shape_mismatch] on a surplus ("too many leaves"), on a short
    list ("not enough leaves", or the leaf's text — "qubit leaf", "bit
    leaf", "bool leaf" — when a last component runs out) and on a
    quantum leaf given a classical endpoint or back ("qubit leaf", "bit
    leaf"). Of several errors, the first in this order is raised: too few
    leaves for a pair's first component, then the second component's
    errors, then the first's; list or array elements in order, each
    checked for enough leaves first; a surplus last. *)

val qleaves : ('b, 'q, 'c) t -> 'q -> Wire.endpoint list
val qbuild : ('b, 'q, 'c) t -> Wire.endpoint list -> 'q
val cleaves : ('b, 'q, 'c) t -> 'c -> Wire.endpoint list
val cbuild : ('b, 'q, 'c) t -> Wire.endpoint list -> 'c
val bleaves : ('b, 'q, 'c) t -> 'b -> bool list
val bbuild : ('b, 'q, 'c) t -> bool list -> 'b
(** {!leaves} and {!build} on each version. *)

val size : ('b, 'q, 'c) t -> int
(** Number of leaves. *)

val qubit : (bool, Wire.qubit, Wire.bit) t
val bit : (bool, Wire.bit, Wire.bit) t
val unit : (unit, unit, unit) t

val pair :
  ('b1, 'q1, 'c1) t -> ('b2, 'q2, 'c2) t -> ('b1 * 'b2, 'q1 * 'q2, 'c1 * 'c2) t

val triple :
  ('b1, 'q1, 'c1) t ->
  ('b2, 'q2, 'c2) t ->
  ('b3, 'q3, 'c3) t ->
  ('b1 * 'b2 * 'b3, 'q1 * 'q2 * 'q3, 'c1 * 'c2 * 'c3) t

val quad :
  ('b1, 'q1, 'c1) t ->
  ('b2, 'q2, 'c2) t ->
  ('b3, 'q3, 'c3) t ->
  ('b4, 'q4, 'c4) t ->
  ( 'b1 * 'b2 * 'b3 * 'b4,
    'q1 * 'q2 * 'q3 * 'q4,
    'c1 * 'c2 * 'c3 * 'c4 )
  t

val list_of : int -> ('b, 'q, 'c) t -> ('b list, 'q list, 'c list) t
(** Lists of exactly [n] elements; the length is a generation-time
    parameter, not an input. *)

val array_of : int -> ('b, 'q, 'c) t -> ('b array, 'q array, 'c array) t

val iso :
  bto:('b1 -> 'b2) ->
  bof:('b2 -> 'b1) ->
  qto:('q1 -> 'q2) ->
  qof:('q2 -> 'q1) ->
  cto:('c1 -> 'c2) ->
  cof:('c2 -> 'c1) ->
  ('b1, 'q1, 'c1) t ->
  ('b2, 'q2, 'c2) t
(** Re-skin a witness through isomorphisms — how library types like
    [Qdint.t] wrap a raw qubit array into an abstract register whose
    parameter version is an [int]. *)

val qubit_wires : ('b, 'q, 'c) t -> 'q -> Wire.t list
(** Qubit wire ids of a purely-quantum structure; raises
    [Shape_mismatch] on classical leaves. *)
