(** The unified simulator interface: the paper's family of
    [run_*_generic] functions (§4.4.5) as one first-class contract.

    {!S} is the module type every simulator implements; {!Classical},
    {!Clifford}, {!Statevector} and {!Fused} are its instances, each
    driven by {!Drive}. Code that runs
    circuits and compares outcomes — differential tests, noise channels,
    fault-injection campaigns — takes a [(module S)] and works on any
    backend whose gate set permits the circuit.

    Final states are compared through {!observation}: each backend
    renders its state into a comparable value ({!equal_observation}
    applies the right equivalence per kind — exact for booleans and
    canonical tableaux, up-to-global-phase for amplitude vectors). *)

open Quipper

type observation =
  | Obs_bits of (Wire.t * bool) list
      (** classical: all live wire values, sorted by wire *)
  | Obs_tableau of string
      (** stabilizer: canonical generators, see {!Clifford.canonical} *)
  | Obs_amplitudes of Quipper_math.Cplx.t array
      (** statevector: amplitudes in internal qubit order *)

val equal_up_to_phase :
  ?eps:float -> Quipper_math.Cplx.t array -> Quipper_math.Cplx.t array -> bool
(** Amplitude vectors equal up to one global phase factor. *)

val equal_observation : ?eps:float -> observation -> observation -> bool
(** Equality for observations of the same circuit structure on the same
    backend; observations of different kinds are never equal. [eps] only
    affects amplitude comparison. *)

(** What a simulator provides before the sampling surface. Backends
    raise [Errors.Error (Simulation _)] on gates outside their gate set
    and [Termination_assertion _] on violated assertive terminations. *)
module type BASE = sig
  val name : string

  type state

  val create : ?seed:int -> unit -> state
  val apply_gate : state -> Gate.t -> unit

  val measure : state -> Wire.t -> bool
  (** Measure a live qubit; the wire becomes classical. Deterministic on
      the classical backend; seeded sampling elsewhere. *)

  val read_bit : state -> Wire.t -> bool
  val set_bit : state -> Wire.t -> bool -> unit

  val observe : state -> observation
  (** Render the quantum part of the state for comparison with another
      run of the same circuit structure on this backend. *)

  val run_fun :
    ?seed:int -> in_:('b, 'q, 'c) Qdata.t -> 'b -> ('q -> 'r Circ.t) -> state * 'r
  (** Execute a circuit-producing function gate by gate as emitted (the
      QRAM picture, §2.1, dynamic lifting included). *)

  val run_circuit : ?seed:int -> Circuit.b -> bool list -> state
  (** Walk an already-generated (hierarchical) circuit on basis-state
      inputs. *)
end

(** The simulator contract: {!BASE} plus the sampling surface. *)
module type S = sig
  include BASE

  (** {2 Sampling surface}

      Stepping gates and terminal measurement used to be conflated:
      drawing N shots of a circuit meant N full [run_circuit]s. The
      snapshot entrypoints split them — freeze the pre-measurement
      state once, then draw each shot from the frozen copy under its
      own RNG at marginal cost far below a re-simulation. This is the
      surface the shot service ([Quipper_serve]) batches on.

      {b The sampling law} (property-checked in [test_serve], for the
      statevector and clifford backends, at 1 and 2 domains): whenever
      [snapshot st = Some snap] for [st = run_circuit b ins], then for
      every seed [s],
      [sample_from snap ~rng:(Rng.create s) outs] is bit-identical to
      [run_circuit ~seed:s b ins] followed by measuring/reading [outs]
      in order (i.e. to {!run_and_measure} at seed [s]). Backends
      certify the precondition themselves: [snapshot] must return
      [None] once the run has consumed seeded randomness (a mid-circuit
      measurement), because the state then depends on the seed and no
      frozen copy can speak for other seeds. Backends that cannot
      snapshot at all decline every state (see {!Without_snapshot});
      callers then fall back to per-shot re-simulation, which satisfies
      the law by construction. *)

  type snapshot

  val snapshot : state -> snapshot option
  (** Freeze the pre-measurement state, or [None] when sampling from a
      copy could not reproduce end-to-end runs. The frozen copy is
      immutable and shareable across domains. *)

  val sample_from :
    snapshot -> rng:Quipper_math.Rng.t -> Wire.endpoint list -> bool list
  (** Draw one shot from a frozen state: measure each [Q] endpoint and
      read each [C] endpoint in order, consuming randomness only from
      [rng]. *)
end

module Statevector :
  S with type state = Statevector.state and type snapshot = Statevector.snapshot
module Clifford :
  S with type state = Clifford.state and type snapshot = Clifford.snapshot
module Classical : S with type state = Classical.state

module Fused :
  S with type state = Fuse.state and type snapshot = Statevector.snapshot
(** The statevector engine behind the gate-fusion compiler ({!Fuse}):
    adjacent gates merge into dense or diagonal k-qubit blocks, and
    boxed subroutines are compiled once and replayed per call.
    Amplitudes agree with {!Statevector} up to float reassociation;
    classical observations are bit-identical at equal seeds. *)

module Without_snapshot (B : BASE) : S with type state = B.state
(** The default sampling derivation for backends that cannot snapshot:
    [snapshot] declines every state (its snapshot type is empty, so
    [sample_from] is statically unreachable), and callers fall back to
    end-to-end re-simulation per shot — satisfying the sampling law
    vacuously. The property tests drive the shot service over a
    [Without_snapshot]-wrapped statevector to check the fallback path
    produces the same outcomes as the batched path. *)

val all : (module S) list
(** Every backend, cheapest first: classical, clifford, statevector,
    fused. *)

val find : string -> (module S)
(** Look a backend up by {!S.name}; raises [Simulation _] if unknown. *)

val run_and_measure : (module S) -> ?seed:int -> Circuit.b -> bool list -> bool list
(** Run a circuit, then measure every qubit output (classical outputs
    are read), in output-arity order. *)

val sink : (module S) -> ?seed:int -> inputs:bool list -> unit -> observation Sink.t
(** Streaming simulation for [Circ.run_streaming]: initializes the
    declared inputs from [inputs], applies every streamed gate to a
    fresh backend state (subroutine calls expanded on the fly by
    [Sink.unbox]), and [finish]es with [observe]. On a box-free circuit
    this sees gate for gate what [run_circuit] applies after inlining,
    so at equal seeds the observations agree bit for bit. *)

val fused_sink :
  ?config:Fuse.config -> ?seed:int -> inputs:bool list -> unit -> observation Sink.t
(** Streaming fused simulation. Unlike [sink (module Fused)], call gates
    are {e not} structurally expanded: streamed subroutine definitions
    are registered with the fuser, and calls replay the memoized
    compiled block program — the streaming path to the box cache. *)
