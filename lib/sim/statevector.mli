(** Dense statevector simulation: the paper's [run_generic] (§4.4.5) —
    "necessarily inefficient on a classical computer", indispensable for
    validation and for running small algorithm instances.

    Implements the extended circuit model (§4.2): [Init] grows the state,
    assertive [Term] checks that the wire really is disentangled in the
    asserted basis state (raising [Termination_assertion] otherwise —
    catching wrong uncomputation) and shrinks the state, measurements
    collapse probabilistically (seeded) and move the wire to a classical
    environment consulted by classically-controlled gates.

    {2 Internal qubit ordering}

    The state is a dense vector of [2^n] complex amplitudes for [n] live
    qubits, held as two unboxed float arrays (real and imaginary parts).
    Each live qubit has an {e index}: a bit position in the amplitude's
    array index, exposed by {!qubit_index}. A freshly initialised qubit
    always takes the highest position [n]; terminating or measuring a
    qubit shifts every higher position down by one. So indices are {e not}
    stable across [Init]/[Term] — query {!qubit_index} at the moment you
    need it, and interpret {!amplitudes}[(i)] as the basis state whose
    qubit [w] has value [(i lsr qubit_index st w) land 1].

    {2 Capacity and buffer reuse}

    The amplitude buffers are capacity-managed: they grow geometrically,
    never shrink, and [Init]/[Term]/[measure] update them in place, so
    ancilla churn does not allocate once the high-water mark is reached.
    Each domain also keeps one spare buffer pair: {!release} hands a
    finished state's pair to it and the next {!create} on that domain
    takes it, so a run of cold preparations grows its buffers once, not
    once per preparation. The pair carries its zero watermark with it,
    so the taker fills only the stale part it grows into; results are
    bit-identical to a state on fresh buffers. The spare slot keeps the
    larger of two pairs, so what a domain retains between states is
    bounded by the largest state it has run.

    Gate application dispatches on {!Quipper.Gate.fast_class} to the
    specialised kernels in {!Kernel} and falls back to generic matrix
    application; results are bit-for-bit those of the {!Reference} seed
    engine, and probability reductions are sequential so sampled outcomes
    never depend on the machine or domain count. *)

open Quipper

val max_qubits : int
(** Hard cap on live qubits (25: 32M amplitudes, 512 MB). *)

type state

val create : ?seed:int -> unit -> state

val create_as : string -> ?seed:int -> unit -> state
(** [create] for an engine built on this one ({!Fuse}): its
    classical-wire errors name the given backend. *)

val num_qubits : state -> int

val capacity : state -> int
(** Allocated length of the amplitude buffers (>= [2^num_qubits]); grows
    geometrically and never shrinks until {!release} (0 after). A state created on a domain that
    holds a spare pair starts at that pair's length, so callers may only
    rely on [>=]. Exposed for the capacity tests. *)

val release : state -> unit
(** Hand the state's buffer pair to this domain's spare slot (kept if
    it is larger than the pair already there) and empty the state. Call
    it when a state is done and about to be dropped; it is a no-op on a
    state already released. Afterwards every gate, {!measure},
    {!read_bit}, {!set_bit}, {!amplitudes}, {!snapshot} and index query
    on the state raises [Simulation _]. Snapshots taken before the
    release are copies and stay valid. *)

val qubit_index : state -> Wire.t -> int
(** Bit position of a live qubit in the amplitude index (see the ordering
    note above). Raises [Simulation _] if [w] is not a live qubit. *)

val read_bit : state -> Wire.t -> bool
(** Value of a classical wire. *)

val set_bit : state -> Wire.t -> bool -> unit
(** Overwrite a classical wire's value. The noise channels use this to
    model measurement readout errors. *)

val amplitudes : state -> Quipper_math.Cplx.t array
(** Copy of the live amplitude vector (length [2^num_qubits]), indexed in
    the simulator's internal qubit order. Used by equality-to-the-bit
    tests (e.g. that a zero-probability noise configuration perturbs
    nothing). *)

val probabilities : state -> float array
(** [norm2] of each amplitude, same indexing as {!amplitudes}. *)

val prob_one : state -> Wire.t -> float
(** Probability that the qubit would measure 1 (no collapse). *)

val measure : state -> Wire.t -> bool
(** Born-rule sample; collapses; the wire becomes classical. *)

val apply_gate : state -> Gate.t -> unit

(** {2 Fusion hooks}

    The bridge the gate-fusion compiler ({!Fuse}) is built on: matrix
    semantics, control resolution and raw-buffer kernel access, exposed
    so fused blocks go through exactly the same constructions as the
    per-gate dispatch. *)

val gate_unitary : Gate.t -> Quipper_math.Mat2.t option
(** The unitary matrix of a [Gate]/[Rot] (controls excluded), inversion
    folded in — the same matrices the dispatch paths use. Two-qubit
    matrices (swap, W) are in the |ab> basis with the first target the
    high bit. [None] for non-unitaries, unknown names and arity
    mismatches. *)

val resolve_controls : state -> Gate.control list -> (int * int) option
(** Fold a control list into one (mask, want) pair over amplitude-index
    bits; classical controls are evaluated against the classical
    environment immediately. [None] means a classical control is
    unsatisfied: skip the gate. *)

val check_live : state -> unit
(** Raises [Simulation _] if the state was {!release}d — for an engine
    that buffers gates before they reach the statevector ({!Fuse}). *)

val apply_kernel :
  state -> (re:float array -> im:float array -> size:int -> unit) -> unit
(** Run an in-place kernel over the live amplitude prefix; the zero
    watermark is invalidated first. The kernel must only write within
    [0, size). *)

val run_fun :
  ?seed:int -> in_:('b, 'q, 'c) Qdata.t -> 'b -> ('q -> 'r Circ.t) -> state * 'r
(** Execute a circuit-producing function gate by gate as emitted —
    Knill's QRAM model (§2.1), including dynamic lifting (§4.3.1). *)

val measure_and_read : state -> ('b, 'q, 'c) Qdata.t -> 'q -> 'b
(** Measure every qubit leaf and read the boolean result. *)

val run_circuit : ?seed:int -> Circuit.b -> bool list -> state
(** Run a generated (hierarchical) circuit on basis-state inputs. *)

(** {2 Snapshots}

    Many-shot sampling support (the shot service): freeze the
    pre-measurement state once, then replay terminal measurements from
    the frozen copy under per-shot RNGs at marginal cost O(2^n) per
    shot — no rebuild, no re-simulation. *)

type snapshot
(** A frozen deep copy of a state (amplitudes trimmed to the live
    prefix, wire positions, classical environment). Immutable:
    unaffected by further use of the source state, shareable across
    domains. *)

val snapshot : state -> snapshot option
(** [None] when a measurement has already consumed from the state's
    RNG: the state then depends on the seed, so no frozen copy could
    reproduce what an end-to-end run at a {e different} seed would
    produce. While no randomness was consumed, the law holds: for every
    seed [s], [sample_from (snapshot st) ~rng:(Rng.create s) outs] is
    bit-identical to running the same circuit end-to-end with [~seed:s]
    and measuring [outs] in order. *)

val sample_from :
  snapshot -> rng:Quipper_math.Rng.t -> Wire.endpoint list -> bool list
(** Draw one shot: copy the snapshot into a working state owning [rng],
    then measure each [Q] output and read each [C] output in order —
    the same ordered probability sums, collapse arithmetic and RNG
    draws an end-to-end run performs at its outputs. *)

val amplitude : state -> Wire.t list -> bool list -> Quipper_math.Cplx.t
(** Amplitude of a basis state; the wire list must cover all live qubits. *)

val output_vector : ?seed:int -> Circuit.b -> bool list -> Quipper_math.Cplx.t array
(** Output amplitudes of a circuit on a basis input, indexed little-endian
    over the output arity — the workhorse of semantics-equality tests. *)
