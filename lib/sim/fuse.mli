(** Gate-fusion compiler for dense simulation.

    Scans the gate stream and merges runs of adjacent gates whose
    combined qubit support fits a small window into single fused
    blocks — one dense [2^k x 2^k] unitary (applied by
    {!Kernel.kq_generic}) or, for runs that stay diagonal, one diagonal
    table over a wider window (applied by {!Kernel.kq_diag}) — so a
    whole run costs one sweep over the [2^n] amplitudes instead of one
    sweep per gate. Blocks that end up holding a single gate fall back
    to the specialised per-gate kernels unchanged.

    Boxed subroutines are additionally {e compiled once} per
    (name, inverse-flag, structural body hash): the body (nested calls
    included) is fused
    into a block program over the body's own wires, and every later
    call replays the compiled blocks under a wire remap with the call's
    controls attached — the box-call analogue of the paper's reusable
    subroutine definitions (§4.3).

    Fusion reassociates the floating-point operations of the gate
    product, so amplitudes agree with the unfused {!Statevector} engine
    up to float reassociation error (tests budget 1e-9). Classical
    observations are bit-identical: measurements and assertions run in
    {!Statevector} on the flushed state, with the same sequential
    probability reductions and the same RNG stream.

    Scheduling is commutation-aware: gates that provably commute with
    the pending block — diagonal gates against a diagonal block,
    anything whose support avoids the block, [Init]/[Term] of
    off-support ancillas — are emitted past it instead of cutting the
    run, and a measured cost model emits the fused form only when it
    beats replaying the absorbed gates through their specialised
    kernels. Measurements, discards, classically-controlled gates and
    unknown names remain hard barriers — the pending block is flushed
    and the gate applied directly, preserving the observable event
    order. *)

open Quipper

type config = {
  max_support : int;
      (** Dense fusion window K (default 4): fused unitaries span at
          most K wires, counting control wires folded into a block. *)
  max_diag_support : int;
      (** Window for purely diagonal runs (default 8). Diagonal tables
          have [2^k] entries and cost O(1) extra work per amplitude
          regardless of [k], so the window can be much wider. *)
}

val default_config : config

type stats = {
  mutable gates_seen : int;
      (** top-level gates fed in (a subroutine call counts as one) *)
  mutable gates_fused : int;
      (** source gates absorbed into multi-gate blocks, including at
          box-compile time *)
  mutable blocks_applied : int;  (** fused-block kernel launches *)
  mutable singles_applied : int;
      (** gates applied through the per-gate kernels *)
  mutable boxes_compiled : int;  (** distinct (name, inv, hash) compilations *)
  mutable calls_replayed : int;  (** calls served from the cache *)
}

val pp_stats : Format.formatter -> stats -> unit

type state

type box_cache
(** A cache of compiled box programs, keyed
    [(name, inverse-flag, structural body hash)] — the hash is
    {!Circuit.Boxdefs.hash}, with nested calls resolved, so same-named
    boxes with different bodies can never alias. It is a {!Memo}: it may
    be shared between states running on different domains (the shot
    service hands one cache to every worker), and each program compiles
    once however many domains race for it. *)

val box_cache : unit -> box_cache
(** A fresh empty shareable cache. *)

val create : ?config:config -> ?boxes:box_cache -> ?seed:int -> unit -> state
(** [boxes] shares a compiled-program cache with other states; by
    default each state gets a private one. *)

val define : state -> string -> Circuit.subroutine -> unit
(** Register a boxed subroutine definition. Redefinition is handled by
    construction: compiled programs are keyed by body hash, so a new
    body simply stops hitting the old entries. *)

val apply_gate : state -> Gate.t -> unit
(** Feed one gate (possibly a subroutine call) into the fuser. *)

val measure : state -> Wire.t -> bool
val read_bit : state -> Wire.t -> bool
val set_bit : state -> Wire.t -> bool -> unit
val amplitudes : state -> Quipper_math.Cplx.t array
val prob_one : state -> Wire.t -> float
val num_qubits : state -> int
val qubit_index : state -> Wire.t -> int

val statevector : state -> Statevector.state
(** The underlying engine, flushed — for differential tests. *)

val snapshot : state -> Statevector.snapshot option
(** Flush, then snapshot the underlying statevector (see
    {!Statevector.snapshot}); sampling from it goes through
    {!Statevector.sample_from}. *)

val release : state -> unit
(** Drop any pending block and {!Statevector.release} the underlying
    statevector: its buffer pair goes to this domain's spare slot for
    the next state created there. Afterwards every gate, read,
    measurement and snapshot on the state raises [Simulation _]. *)

val stats : state -> stats

val run_fun :
  ?seed:int ->
  in_:('b, 'q, 'c) Qdata.t ->
  'b ->
  ('q -> 'r Circ.t) ->
  state * 'r
(** Fused analogue of {!Statevector.run_fun}: execute a circuit-producing
    function gate by gate as emitted (boxing disabled — the stream is
    flat, so this exercises pure fusion; run generated circuits through
    {!run_circuit} to exercise the box cache). *)

val measure_and_read : state -> ('b, 'q, 'c) Qdata.t -> 'q -> 'b

val run_circuit :
  ?config:config -> ?boxes:box_cache -> ?seed:int -> Circuit.b -> bool list -> state
(** Run a generated hierarchical circuit on basis-state inputs,
    compiling and replaying its boxed subroutines ([boxes] shares the
    compiled programs across runs — the shot service's warm path). *)

(** {2 Parameter-sweep templates}

    A parameterized circuit family — one skeleton instantiated at many
    rotation angles — recompiles everything the fuser decides
    {e structurally} (block boundaries, commutation scheduling, wire
    remaps, dense/diagonal classification, box replay plumbing) on
    every point, even though none of those decisions depend on the
    angles. [compile_template] runs the whole fusion pipeline once and
    records the emitted block trace, with each angle-dependent block
    carrying a re-specialization closure; [run_template] then serves a
    new parameter point by substituting only the rotation/diagonal
    kernel entries.

    Re-specialization is {e bit-identical} to a from-scratch
    [run_circuit (Circuit.subst_angles b v) inputs] at the same seed:
    block rebuild replays the recorded absorption arithmetic over the
    block's final support (pointwise-equal float operations), all
    scheduling decisions are angle-independent, and the apply order is
    the recorded order — so amplitudes, measurement outcomes and the
    RNG stream all coincide exactly, not merely within a float
    tolerance. *)

type template
(** A compiled angle-generic block program for one
    [(Circuit.hash_skeleton, inputs)] class. *)

val compile_template :
  ?config:config -> Circuit.b -> bool list -> template
(** Compile circuit + basis inputs into a reusable template. The box
    cache used is private (compiled programs carry this circuit's
    angle-site numbering). The angle
    vector expected by {!run_template} follows {!Circuit.angles} order
    and the template was built at the circuit's own angles, so
    [run_template t (Circuit.angles b)] reproduces the original
    circuit. *)

val template_sites : template -> int
(** Expected angle-vector length ([= Circuit.num_angles] of the source). *)

val template_fused_blocks : template -> int
(** Number of fused (non-single-gate) blocks in the trace. *)

val template_specialized_blocks : template -> int
(** Number of blocks that are angle-dependent (re-specialized per
    point); the remainder are shared verbatim across every point. *)

val run_template : ?config:config -> ?seed:int -> template -> float array -> state
(** Apply the template's blocks, re-specialized at the given angle
    vector, to a fresh state. Raises if the vector length differs from
    {!template_sites}. [config] only affects bookkeeping of the fresh
    state (the trace is already compiled); [seed] seeds its RNG exactly
    as [run_circuit]'s. *)
