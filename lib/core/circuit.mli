(** Circuits and hierarchical (boxed) circuits.

    A {!t} is a straight-line gate sequence with typed input and output
    aritys. A {!b} ("boxed circuit", Quipper's [BCircuit]) pairs a main
    circuit with a namespace of named subroutine definitions; [Subroutine]
    gates refer into the namespace. Keeping subroutines shared rather than
    inlined is what lets circuits with trillions of gates be represented,
    transformed and counted (paper §4.4.4, §5.4). *)

type t = {
  inputs : Wire.endpoint list;
  gates : Gate.t array;
  outputs : Wire.endpoint list;
}

type subroutine = { circ : t; controllable : bool }
(** [controllable] records whether calls may receive controls (true when
    the body is purely unitary). *)

module Namespace : Map.S with type key = string

type b = {
  main : t;
  subs : subroutine Namespace.t;
  sub_order : string list;  (** definition order, for stable printing *)
}

val of_main : t -> b

val find_sub : b -> string -> subroutine
(** Raises {!Errors.Error} [(Unknown_subroutine _)]. *)

val gate_count_shallow : t -> int
(** Number of non-comment gates, subroutine calls counted once. *)

val validate : ?subs:subroutine Namespace.t -> t -> unit
(** Check physical well-formedness: every gate addresses live wires of the
    right type, no wire occurs twice in one gate, inits allocate fresh
    wires, terminations kill them, and the final live set matches the
    declared outputs. Raises {!Errors.Error} otherwise. *)

val check_acyclic : b -> unit
(** Raise {!Errors.Error} [(Invalid _)], naming the cycle, when a box
    calls itself directly or through other boxes. *)

val validate_b : b -> unit
(** {!check_acyclic}, then [validate] on the main circuit and every
    subroutine body. *)

(** {2 Structural hashing}

    One canonical 64-bit structural hash for the whole stack: the shot
    service's request and template caches, the resolved body hashes of
    {!Boxdefs} (which key [Fuse]'s compiled programs and [Stream_opt]'s
    body caches) and golden tests all key off this definition. The hash is order-sensitive and parameter-sensitive
    (rotation angles enter via their IEEE-754 bit patterns), and ignores
    comments — which are transparent to counting, optimization and
    simulation alike. *)

val hash_t : ?resolve:(string -> int64 option) -> t -> int64
(** Hash of one straight-line circuit. [resolve] supplies the body hash
    folded into each [Subroutine] call gate (in addition to the callee's
    name); when it returns [None] — the default — only the name is
    hashed, so two same-named calls agree regardless of what the name
    binds to. *)

val hash : b -> int64
(** Box-aware hash of a whole boxed circuit: every [Subroutine] call
    folds in the (recursively resolved, memoized) structural hash of the
    callee's body and its controllability flag, so same-named boxes with
    different bodies hash differently. Unresolvable names hash by name
    alone, like {!validate} treats them as opaque. *)

(** {2 Skeleton hashing and angle sites}

    A parameterized circuit family — the same template instantiated at
    many rotation angles (paper §4; the sweep workloads) — shares a
    {e skeleton}: the structural hash computed with every [Rot]/[Phase]
    angle replaced by a fixed marker. Everything else (gate names,
    inverse flags, targets, controls, wire plumbing, box bodies, input/
    output aritys) still enters, so the skeleton hash is exactly as
    discriminating as {!hash} modulo the rotation parameters.

    The parameters themselves form a deterministic {e angle-site}
    vector: one site per [Rot]/[Phase] gate, main gates in array order
    first, then each subroutine body in [sub_order]. Two circuits with
    equal [hash_skeleton] have equally many sites at the same structural
    positions. *)

val hash_skeleton_t : ?resolve:(string -> int64 option) -> t -> int64
(** Like {!hash_t}, but angle-blind (rotation angles replaced by a
    marker). *)

val hash_skeleton : b -> int64
(** Like {!hash}, but angle-blind through subroutine bodies too:
    invariant under any perturbation of [Rot]/[Phase] angles anywhere in
    the boxed circuit, sensitive to everything else. *)

val num_angles : b -> int
(** Number of angle sites ([Rot]/[Phase] gates) in main plus all
    subroutine bodies. *)

val angles_t : t -> float array
(** Angle-site vector of one straight-line circuit, in gate order. *)

val angles : b -> float array
(** Angle-site vector of a boxed circuit: main gates in order, then each
    subroutine body in [sub_order]. [Array.length (angles b) =
    num_angles b]. *)

val subst_angles : b -> float array -> b
(** [subst_angles b v] rebuilds [b] with the angle at each site replaced
    by the corresponding entry of [v] (site order as in {!angles});
    gates whose angle is bitwise-unchanged are physically shared.
    Raises if [Array.length v <> num_angles b]. The result satisfies
    [hash_skeleton (subst_angles b v) = hash_skeleton b]. *)

(** {2 Reversal and box calls} *)

val reverse : t -> t
(** The inverse circuit: gates reversed and inverted, comments dropped,
    inputs and outputs swapped. [Init] and [Term] swap roles;
    measurements, discards and classical gates raise [Not_reversible]. *)

(** The box table: what a call means, for every walker that expands or
    keys box calls ({!inline}, [Sink.unbox], [Fuse], [Stream_opt]). A
    table is mutable and belongs to one walker; it is not shared between
    domains. *)
module Boxdefs : sig
  type circuit := t
  type t

  val create : unit -> t

  val of_b : b -> t
  (** A table holding every definition of a boxed circuit. *)

  val define : t -> string -> subroutine -> unit
  (** Add or replace a definition. Resolved hashes are recomputed after
      the next [define]; a redefined name stops matching keys built from
      its old body. *)

  val find : t -> string -> subroutine
  (** Raises {!Errors.Error} [(Unknown_subroutine _)]. *)

  val hash : t -> string -> int64
  (** The body hash {!Circuit.hash} folds in for a call to the name: the
      definition's {!hash_t} with every nested call resolved the same way,
      and its [controllable] flag (a name with no definition hashes by
      name alone), memoized until the next {!define}. *)

  val hash_skeleton : t -> string -> int64
  (** The same, through {!hash_skeleton_t}. *)

  val callee : t -> string -> inv:bool -> circuit
  (** The circuit a call runs: the body, or for an inverse call its
      {!reverse}, built once per definition. Its [inputs] and [outputs]
      are the call's formals. *)

  val renamer :
    fresh:(unit -> Wire.t) ->
    circuit ->
    inputs:Wire.t list ->
    outputs:Wire.t list ->
    Wire.t ->
    Wire.t
  (** [renamer ~fresh callee ~inputs ~outputs] maps [callee]'s formals to
      a call's actual wires and each other wire of the body to a [fresh ()]
      id on first sight, so each walker keeps its own wire naming. *)
end

(** {2 Inlining} *)

val inline : b -> t
(** Expand every subroutine call recursively into a flat circuit, renaming
    internal wires apart. Only feasible for small circuits; invaluable for
    testing that hierarchical operations agree with flat ones. *)

val inline_provenance : b -> t * string list array
(** Like {!inline}, also returning, for each emitted gate, the stack of
    subroutine names it was inlined out of (outermost first; [[]] for
    gates of the main circuit). Fault-site enumeration uses this to
    report where in the hierarchy each site lives. *)
