(** The hierarchical resource engine (paper §5.3.1, §5.4): gate counts,
    peak live wires and a per-wire depth clock, computed as a product
    over the call tree. Every boxed subcircuit is walked once, into one
    summary (its terms, its peak and its depth), and each call composes
    that summary; nothing is ever inlined, so a 30-trillion-gate circuit
    costs as much as its distinct box bodies.

    This is the only implementation of that recursion. {!Gatecount} and
    {!Depth} are native-int projections of its vectors, the
    [Sink.gatecount] and [Sink.depth] streaming consumers run its
    streaming step, and [Quipper_estimate] adds the symbolic combinators
    on top. Results are {!Wide}, so the engine itself never wraps; the
    native-int projections raise instead.

    A walk's step allocates nothing for a gate whose key and wires it
    has seen, nor for a call of a box in a direction and under a control
    tally it has seen: a gate is matched from its own fields in a table
    of cells (only a key's first gate builds its {!Xkey}), and a call
    finds its box by name and bumps a counter. A summary's terms keep
    each gate's own key apart from the ambient controls the calls above
    it add, as a tally, so one summary serves every control signature
    its box is called under; keys and representatives are spelled out
    only when a walk is read. Depth clocks are native ints in a
    {!Wire.Itbl}; the rare clock at or above 2{^61} is kept exactly in a
    side table, and a terminated wire leaves both. So a walk's memory is
    bounded by its distinct keys and live wires, never by its gate
    count.

    The semantics, shared by every projection:
    - {b counts}: one per non-comment gate, keyed by {!Xkey}. A call
      contributes its body's counts; a call under extra controls adds
      them to every controllable body gate; an inverse call contributes
      the inverted counts (Init/Term kinds swap, [inv] bits flip except
      on self-inverse kinds).
    - {b peak}: the most simultaneously live wires. Inits and classical
      gates open a wire, terminations and discards close one, and a call
      at [l] live wires can reach [l - arity_in + peak body].
    - {b depth}: a clock per wire. A gate finishes one step after the
      latest of its wires; a call advances every wire it touches by the
      body's depth, serialising it as a block (an upper bound on the
      inlined depth, exact on flat circuits). Comments are free. A
      terminated wire's clock is dropped, so a streamed walk holds
      clocks for live wires only. *)

(** A count key. [kind] is Quipper's gate-kind name (["Not"], ["H"],
    ["Init0"], ["Meas"], ["CGate:xor"], ...), [arity] the number of
    quantum targets, and [csig] the ordered control signature (type,
    sign). Order is part of the key because multi-control decomposition
    pairs controls in sequence: same-multiset, different-order control
    lists can decompose differently. *)
module Xkey : sig
  type t = {
    kind : string;
    inverted : bool;
    arity : int;
    csig : (Wire.ty * bool) list;
  }

  val compare : t -> t -> int
end

module Xmap : Map.S with type key = Xkey.t

val xkey_of_gate : Gate.t -> Xkey.t option
(** [None] for comments and subroutine calls. *)

type counts = (Wide.t * Gate.t) Xmap.t
(** Per key: the count and one representative gate of that key (what
    [Quipper_estimate.Estimate.in_base] decomposes). *)

type terms
(** Counts before the ambient controls are spelled out: per gate key,
    whether the gate takes ambient controls and how many of each sign
    and type the calls above it added. *)

(** A resource vector. *)
type t = {
  counts : counts;  (** [view terms] *)
  terms : terms;
  in_arity : int;
  out_arity : int;
  peak : int;
  depth : Wide.t;
}

val of_circuit : ?counts:bool -> ?peak:bool -> ?depth:bool -> Circuit.b -> t
(** Walk a materialized circuit. The flags (all [true] by default)
    select the parts to compute; a part left out reads as zero or
    empty. *)

val report : Circuit.b -> t * (string * t) list
(** One run over every part: the whole circuit's vector, and each box's
    (its own calls expanded, its peak counted from its inputs), in
    definition order, read from the summaries the run built. *)

(** {1 Streaming}

    The same walk fed one event at a time ({!Circ.run_streaming}):
    definitions as boxes close, gates as they are emitted. Memory is
    bounded by distinct keys, live wires and the namespace, never by
    the gate count. *)

type stream

val stream : ?counts:bool -> ?peak:bool -> ?depth:bool -> unit -> stream
val inputs : stream -> Wire.endpoint list -> unit

val define : stream -> string -> Circuit.subroutine -> unit
(** Must precede the call gates naming it. *)

val gate : stream -> Gate.t -> unit
val finish : stream -> outputs:int -> t

val boxes : stream -> (string * t) list
(** Each defined box's vector, in definition order, as {!report} gives
    them: read from the summaries the walk built (a box no call reached
    is walked now). *)

(** {1 Operations on counts} *)

val bump : Xkey.t -> Wide.t -> Gate.t -> counts -> counts
(** Add a count under a key, keeping the key's representative if it
    has one. *)

val invert : counts -> counts
(** The counts of the reversed circuit. *)

val ambient_key : int * int * int * int -> Xkey.t -> Xkey.t
(** [ambient_key (qpos, qneg, cpos, cneg) x]: the key of a controllable
    gate of key [x] under that many ambient controls, which the
    signature gains in that order after the gate's own. *)

val ambient_rep : int * int * int * int -> Gate.t -> Gate.t
(** The same gate with that many fresh control wires attached: a
    representative of [ambient_key]. *)

(** {1 Operations on terms} *)

val view : terms -> counts
(** A controllable gate's key gains its ambient tally ({!ambient_key},
    {!ambient_rep}); of two terms spelling one key, the later one's
    representative wins. *)

val flat : counts -> terms
(** The terms of a circuit whose controls are all its gates' own. *)

val append : terms -> terms -> terms
(** The second's representatives win. *)

val scale : int -> terms -> terms
val reverse : terms -> terms

val control : int * int * int * int -> terms -> terms
(** Under that many more ambient controls, as for {!ambient_key}: the
    keys spelled are those a walk of the controlled circuit gives. *)

val max_wire_of : Gate.t -> Wire.t
(** The largest wire id a gate touches (0 for none): ids above it are
    fresh for that gate. *)

val to_int : string -> Wide.t -> int
(** The native-int value of [what]; raises {!Errors.Error}
    [(Invalid _)] naming [--estimate] when it exceeds [max_int]. *)
