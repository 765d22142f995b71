(** The circuit-construction monad: Quipper's [Circ] (paper §4.4).

    A computation of type ['a t] describes a quantum operation in the
    paper's procedural paradigm: qubits are held in variables, gates are
    applied one at a time, and the same code can be {e run} in different
    ways (§4.4.5) — accumulated into a circuit ({!generate}), counted,
    printed, or executed gate-by-gate against a simulator, including the
    QRAM model with dynamic lifting (§4.3). The builder performs the
    run-time physicality checks of §4.1 (no-cloning, no dead wires) on
    every gate. *)

type ctx
(** The mutable builder context. User code never touches it directly;
    run-function implementations create one with {!create_ctx}. *)

type 'a t = ctx -> 'a
(** A circuit-producing computation. The representation is exposed so that
    custom low-level operations can be written as functions on the
    context; ordinary code composes computations with the monad
    operations below. *)

(** {1 Monad structure} *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : 'a t -> ('a -> 'b) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
val ( >> ) : 'a t -> 'b t -> 'b t

val mapm : ('a -> 'b t) -> 'a list -> 'b list t
val iterm : ('a -> unit t) -> 'a list -> unit t
val foldm : ('acc -> 'a -> 'acc t) -> 'acc -> 'a list -> 'acc t

val iterate : int -> ('a -> 'a t) -> 'a -> 'a t
(** [iterate n f x]: apply the circuit-producing [f] to [x], [n] times in
    sequence (Trotter steps, Grover iterations, ...). *)

val for_ : int -> int -> (int -> unit t) -> unit t

(** {1 Context management (for run-function implementors)} *)

val create_ctx :
  ?boxing:bool ->
  ?materialize:bool ->
  ?on_emit:(Gate.t -> unit) ->
  ?on_sub_enter:(string -> unit) ->
  ?on_sub_exit:(string -> Circuit.subroutine -> unit) ->
  ?lift:(ctx -> Wire.t -> bool) ->
  unit ->
  ctx
(** A fresh builder. [boxing:false] makes {!box} inline its body (needed
    when gates are executed as emitted); [on_emit] is called on every
    top-level gate (the execution hook of the simulators and of
    {!run_streaming}); [materialize:false] drops top-level gates from the
    buffer after emission (streaming runs — {!with_computed} regions stay
    buffered while open, since their gates are re-read to uncompute);
    [on_sub_enter]/[on_sub_exit] observe box-body capture; [lift]
    supplies {!dynamic_lift}. *)

val alloc_input : ctx -> Wire.ty -> Wire.t
(** Allocate a circuit input wire (live, recorded in the input arity). *)

val alloc_id : ctx -> Wire.t
(** A fresh wire id, not yet live; the [Init] (or [Cgate], or call output)
    that brings it to life registers it. *)

val fresh_wire : ctx -> Wire.ty -> Wire.t
(** A fresh wire id registered as live without an [Init] gate (inputs). *)

val emit : ctx -> Gate.t -> unit
(** The single point every gate passes through: applies the ambient
    controls, runs the physicality checks, updates liveness, appends to
    the circuit, notifies the executor. A wire an [Init], a [Cgate] or a
    call brings to life must carry an id from {!alloc_id} (or
    {!fresh_wire}) allocated in the current scope: inside a box or
    reversal body, one allocated in that body. *)

(** {1 Basic gates} *)

val qnot : Wire.qubit -> Wire.qubit t
val qnot_ : Wire.qubit -> unit t
val hadamard : Wire.qubit -> Wire.qubit t
val hadamard_ : Wire.qubit -> unit t
val gate_X : Wire.qubit -> Wire.qubit t
val gate_Y : Wire.qubit -> Wire.qubit t
val gate_Z : Wire.qubit -> Wire.qubit t
val gate_S : Wire.qubit -> Wire.qubit t
val gate_T : Wire.qubit -> Wire.qubit t
val gate_V : Wire.qubit -> Wire.qubit t
val gate_E : Wire.qubit -> Wire.qubit t
val gate_S_inv : Wire.qubit -> unit t
val gate_T_inv : Wire.qubit -> unit t
val gate_V_inv : Wire.qubit -> unit t

val gate1 : string -> Wire.qubit -> unit t
(** Apply a named single-qubit gate. *)

val gate1' : string -> Wire.qubit -> Wire.qubit t

val named_gate : string -> Wire.qubit list -> unit t
(** A user gate by name; prints and counts, but has no built-in
    simulation semantics. *)

val gate_W : Wire.qubit -> Wire.qubit -> unit t
(** The Binary Welded Tree basis-change gate (paper Figure 1). *)

val gate_W_inv : Wire.qubit -> Wire.qubit -> unit t
val swap : Wire.qubit -> Wire.qubit -> unit t
val cnot : control:Wire.qubit -> target:Wire.qubit -> unit t
val toffoli : c1:Wire.qubit -> c2:Wire.qubit -> target:Wire.qubit -> unit t

val rot_expZt : float -> Wire.qubit -> unit t
(** The e^{-iZt} rotation of Figure 1. *)

val rot_Z : float -> Wire.qubit -> unit t
val rot_X : float -> Wire.qubit -> unit t

val gate_R : int -> Wire.qubit -> unit t
(** The QFT phase gate R_k = diag(1, e^{2 pi i / 2^k}). *)

val gate_R_inv : int -> Wire.qubit -> unit t
val global_phase : float -> unit t

(** {1 Initialisation, termination, measurement (§4.2)} *)

val qinit_bit : bool -> Wire.qubit t
(** Allocate a fresh qubit in |0> or |1> (the "0|-" gate). *)

val qterm_bit : bool -> Wire.qubit -> unit t
(** Assertive termination ("-|0"): the caller asserts the state; the
    simulators verify the assertion, the compiler may rely on it. *)

val qdiscard : Wire.qubit -> unit t
val cinit_bit : bool -> Wire.bit t
val cterm_bit : bool -> Wire.bit -> unit t
val cdiscard : Wire.bit -> unit t

val measure_qubit : Wire.qubit -> Wire.bit t
(** Measure: the wire becomes classical (same id). *)

val prepare : Wire.bit -> Wire.qubit t
(** A fresh qubit classically-controlled-copied from a classical wire. *)

val cgate : string -> Wire.bit list -> Wire.bit t
val cgate_xor : Wire.bit list -> Wire.bit t
val cgate_and : Wire.bit list -> Wire.bit t
val cgate_or : Wire.bit list -> Wire.bit t
val cgate_not : Wire.bit -> Wire.bit t

val dynamic_lift : Wire.bit -> bool t
(** Read a circuit-execution-time classical wire back as a
    generation-time boolean (§4.3.1). Only run functions that execute
    circuits provide it; plain generation raises
    [Dynamic_lifting_unavailable]. *)

(** {1 Control structure (§4.4.2)} *)

val ctl : Wire.qubit -> Gate.control
val ctl_neg : Wire.qubit -> Gate.control
val ctl_bit : Wire.bit -> Gate.control
val ctl_bit_neg : Wire.bit -> Gate.control

val with_controls : Gate.control list -> 'a t -> 'a t
(** Let an entire block of gates be controlled. Nested blocks accumulate;
    initialisations and terminations pass through uncontrolled
    (control-neutral); measurements inside raise. *)

val with_control : Wire.qubit -> 'a t -> 'a t

val controlled : Gate.control list -> 'a t -> 'a t
(** Pipe-friendly [with_controls], mirroring the paper's infix
    [`controlled`]: [qnot_ x |> controlled [ ctl a; ctl_neg b ]]. *)

val without_controls : 'a t -> 'a t

val control_trimming : bool ref
(** When true (the default, as in Quipper), {!with_computed} applies
    ambient controls only to its [use] block: controlling the body alone
    is equivalent to controlling the whole compute/use/uncompute sandwich,
    and much cheaper. Settable to [false] for ablation. *)

(** {1 Ancillas (§4.2.1)} *)

val with_ancilla : (Wire.qubit -> 'a t) -> 'a t
(** Provide a |0> ancilla to a block; the block must return it to |0>,
    and the closing assertive termination checks it under simulation. *)

val with_ancilla_init : bool list -> (Wire.qubit list -> 'a t) -> 'a t

(** {1 Comments and labels} *)

val comment : string -> unit t
val comment_with_label : string -> ('b, 'q, 'c) Qdata.t -> 'q -> string -> unit t

type labelled = L : ('b, 'q, 'c) Qdata.t * 'q * string -> labelled

val lab : ('b, 'q, 'c) Qdata.t -> 'q -> string -> labelled
val comment_with_labels : string -> labelled list -> unit t

(** {1 Generic operations over shape witnesses (§4.5)} *)

val qinit : ('b, 'q, 'c) Qdata.t -> 'b -> 'q t
(** The paper's [qinit :: QShape b q c => b -> Circ q]. *)

val qterm : ('b, 'q, 'c) Qdata.t -> 'b -> 'q -> unit t
val measure : ('b, 'q, 'c) Qdata.t -> 'q -> 'c t
val discard : ('b, 'q, 'c) Qdata.t -> 'q -> unit t

val controlled_not : ('b, 'q, 'c) Qdata.t -> target:'q -> source:'q -> unit t
(** CNOT each leaf of [source] onto the corresponding leaf of [target] —
    the generic [controlled_not] of §4.5. *)

val qinit_of : ('b, 'q, 'c) Qdata.t -> 'q -> 'q t
(** Fresh quantum data CNOT-copied leafwise from existing wires. *)

(** {1 Whole-circuit operators (§4.4.3)} *)

val reverse_fun :
  in_:('b, 'q, 'c) Qdata.t ->
  out:('b2, 'q2, 'c2) Qdata.t ->
  ('q -> 'q2 t) ->
  'q2 ->
  'q t
(** The inverse of a circuit-producing function, applicable mid-circuit.
    Circuits containing initialisations and assertive terminations reverse
    without complaint (§4.2.2). The body is captured once, then its gates
    are inverted, renamed onto the actual wires and emitted in one
    backward pass; wires born in the inverse get fresh ids in the order
    they first appear. *)

val reverse_simple : ('b, 'q, 'c) Qdata.t -> ('q -> 'q t) -> 'q -> 'q t

val with_computed : 'a t -> ('a -> 'b t) -> 'b t
(** [with_computed compute use]: run [compute], use its result, then
    automatically emit the inverses of [compute]'s gates in reverse order
    (§5.3.1). See {!control_trimming}. *)

val with_computed_fun : 'x -> ('x -> 'a t) -> ('a -> ('a * 'r) t) -> ('x * 'r) t
(** The paper's [with_computed_fun x compute use]; [use] must return the
    intermediate value unchanged. *)

(** {1 Boxed subcircuits (§4.4.4)} *)

val box :
  string ->
  in_:('b, 'q, 'c) Qdata.t ->
  out:('b2, 'q2, 'c2) Qdata.t ->
  ('q -> 'q2 t) ->
  'q ->
  'q2 t
(** [box name ~in_ ~out f x]: apply [f] through a named boxed subcircuit.
    The first use generates the body once on dummy wires and records it in
    the namespace; every use emits a single call gate. Boxes nest —
    hierarchical circuits — and resource counting exploits the sharing.

    A later call costs O(wires) and a few conses per wire: it reads the
    leaves of [x], renames the body's outputs onto actual wires (a body
    that hands back its inputs in place reuses them) and rebuilds the
    result. [box] does not build the witnesses; a generator that is
    called many times builds them once, as in
    [let f ~p = let shape = ... in box "f" ~in_:shape ~out:shape body]. *)

(** {1 Running} *)

val generate :
  ?boxing:bool -> in_:('b, 'q, 'c) Qdata.t -> ('q -> 'r t) -> Circuit.b * 'r
(** Generate the circuit of [f] applied to fresh inputs of shape [in_].
    The outputs are all wires live at the end, in id order. *)

val generate_unit : ?boxing:bool -> 'r t -> Circuit.b * 'r

val run_streaming :
  ?boxing:bool ->
  ?lift:(ctx -> Wire.t -> bool) ->
  in_:('b, 'q, 'c) Qdata.t ->
  ('q -> 'r t) ->
  'sr Sink.t ->
  'sr * 'r
(** Run [f] on fresh inputs of shape [in_], feeding every top-level gate
    to the sink as it is emitted instead of materializing the circuit:
    per-gate O(1) memory for sink-only consumers (streaming gate counts,
    depth, printing, simulation — see {!Sink}), which unbounds circuit
    size from RAM the way the paper's lazy evaluation does (§5.4).

    The sink sees exactly the gate sequence {!generate} records in the
    main circuit — same order, same wire ids, ambient controls applied —
    and subroutine definitions arrive (via [on_subroutine_exit]) before
    the first call gate naming them. Memory caveats: a {!with_computed}
    sandwich stays buffered until its uncompute half has been emitted
    (the bound becomes the largest open sandwich), and box bodies are
    captured as usual — they are the namespace, not the stream.

    [lift] supplies {!dynamic_lift}, as for {!create_ctx}: the
    simulators' run functions execute each gate as it streams past, so
    they can answer it. *)

val run_streaming_unit : ?boxing:bool -> 'r t -> 'sr Sink.t -> 'sr * 'r
(** {!run_streaming} for a closed computation (no declared inputs). *)
