(** Symbolic resource estimation over the subroutine tree.

    A flat 10^12-gate instance takes 10^12 sink callbacks even when
    streamed. This module closes the gap to the paper's scalability
    claim (§5.4) and to the resource-estimation literature
    (arXiv:1412.0625): derive, once, a {e resource vector} for each
    piece of a program — gate counts by kind and class, T-count, a depth
    bound, peak wires — then combine vectors across call multiplicities,
    repetitions, controls and inverses without expanding anything. The
    vectors are {!Resource}'s, whose {!Wide} accumulators never wrap
    however far the parameters are pushed.

    Exactness contract. {!Gatecount} and {!Depth} are native-int
    projections of the same vectors, so on one circuit they agree by
    construction; what [test_estimate] checks differentially is the
    combinators against the circuits they model, and the vectors against
    pinned summaries of a fixed circuit corpus:

    - gate counts, T-count and peak wires are {e exact}, and
      [seq]/[repeat] keep them exact (each repetition emits the same
      gate multiset), as [inverse] and [controlled] do for the reversed
      and controlled circuits;
    - [depth_bound] is an {e upper bound} on the exact scheduled depth
      ([Depth.depth] of the inlined circuit), equal to the hierarchical
      [Depth.depth] on the same circuit, and exact on flat circuits;
    - [in_base] is exact for counts whenever no controls cross box
      boundaries (ambient controls do not commute with decomposition),
      which the property corpus asserts against
      [Decompose.decompose_generic]; its depth/width are documented
      bounds (max gadget depth / max gadget ancilla overhead). *)

open Quipper

type t = Resource.t
(** A resource vector: per-kind {!Wide} gate counts, input/output
    arities, peak simultaneously-live wires, and a {!Wide} depth
    bound. *)

(** {1 Deriving vectors} *)

val of_circuit : Circuit.b -> t
(** [Resource.of_circuit] with every part: the vector of a materialized
    boxed circuit, never expanded. *)

val sink : unit -> t Sink.t
(** [Sink.resource ()]: the same vector from a stream
    ({!Circ.run_streaming}); subroutine call gates cost O(1) amortized,
    bodies are never unboxed. *)

val of_circ : in_:('b, 'q, 'c) Qdata.t -> ('q -> 'r Circ.t) -> t
(** Run a circuit-producing function through {!sink}. *)

val of_circ_unit : 'r Circ.t -> t

(** {1 Combining vectors}

    The compositional layer (the indexed-monads framing of
    arXiv:2511.22419): algorithm = prologue ; step^n ; epilogue, with
    the step derived once and multiplied symbolically. *)

val seq : t -> t -> t
(** Sequential composition; raises [Invalid_argument] unless the left
    output arity equals the right input arity. Counts and peak are
    exact; depth adds (a bound — chains need not align across the
    seam). *)

val repeat : int -> t -> t
(** [repeat n v]: [n] sequential repetitions of [v] ([n >= 0]; requires
    equal input and output arity). Counts scale exactly by [n] — every
    iteration emits the same gate multiset whatever its wire ids —
    peak is unchanged, depth multiplies (a bound). *)

val inverse : t -> t
(** The vector of the reversed circuit: Init/Term kinds swap, [inv]
    bits flip (except self-inverse kinds), arities swap — the counts of
    [Reverse] of the circuit. *)

val controlled : ?pos:int -> ?neg:int -> t -> t
(** The vector of the same block called under [pos] positive and [neg]
    negative ambient quantum controls: the controls attach to every
    controllable gate (control-neutral inits/terms pass through), as in
    [Gatecount.aggregate] of a controlled call. The control wires
    belong to the enclosing context and are not added to this vector's
    arities or peak; the depth bound degrades to the total gate count
    (controls serialize everything they touch). *)

val in_base : Decompose.base -> t -> t
(** Re-quote the vector in a target gate base by applying
    {!Decompose.expand} once per gate kind as a counts transfer
    function — e.g. the exact Toffoli -> 5 two-qubit-gate Barenco
    factor — exact for counts when no controls cross box boundaries.
    Depth multiplies by the deepest gadget; peak grows by the largest
    gadget ancilla overhead (both sound bounds). *)

(** {1 Reading vectors} *)

val in_arity : t -> int
val out_arity : t -> int

val peak_wires : t -> int
(** "Qubits in circuit": peak simultaneously-live wires. *)

val depth_bound : t -> Wide.t

val total : t -> Wide.t
(** Total gates, inits/terms/measures included ("Total gates"). *)

val total_logical : t -> Wide.t
(** Total excluding initialisation/termination/measurement. *)

val t_count : t -> Wide.t
(** Uncontrolled T and T* gates (each costs one magic state). *)

val counts : t -> (Gatecount.key * Wide.t) list
(** Projected counts in {!Gatecount.Key} order. *)

val by_class : t -> (Gatecount.klass * Wide.t) list
(** Counts rolled up by {!Gatecount.class_of_key}, every class listed. *)

val equal : t -> t -> bool
(** Same counts, arities, peak and depth (representative gates are
    ignored — they are an implementation detail of [in_base]). *)

val agrees : t -> Gatecount.summary -> bool
(** Bit-identical to an exact summary: projected counts equal key for
    key, and total/inputs/outputs/qubits match. The differential
    acceptance check of the whole module. *)

val pp_summary : Format.formatter -> t -> unit
(** The [Gatecount.pp_summary] block (same field order, counts printed
    in full decimal however wide) followed by the symbolic-only lines:
    depth bound, T-count, logical total, by-class rollup. *)
