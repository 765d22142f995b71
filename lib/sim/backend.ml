(** The unified simulator interface.

    Quipper's paper describes a family of [run_*_generic] functions
    (§4.4.5) — classical, stabilizer, and full statevector simulation —
    that share a shape: build a state, feed it gates, measure, read.
    This module makes that shape a first-class contract: {!S} is the
    module type every simulator implements, and {!Classical},
    {!Clifford}, {!Statevector} and {!Fused} are its instances as
    first-class modules, so differential tests, noise channels and
    fault-injection campaigns can be written once and pointed at any
    backend whose gate set permits. The shape itself — run functions,
    input loading, output readout, classical wires — is written once in
    {!Drive}.

    Backends differ in what a final state {e is} — a boolean per wire, a
    stabilizer tableau, an amplitude vector — so cross-run comparison goes
    through {!observation}: each backend renders its state into a
    comparable value, and {!equal_observation} knows the right equivalence
    for each (bit-for-bit for booleans, canonical-form equality for
    tableaux, equality up to one global phase for amplitude vectors). *)

open Quipper

(** What a backend can tell you about a final state. Observations are
    only comparable between runs of the same circuit structure (same
    allocation order), on the same backend. *)
type observation =
  | Obs_bits of (Wire.t * bool) list
      (** classical backend: all live wire values, sorted by wire *)
  | Obs_tableau of string
      (** stabilizer backend: canonical stabilizer generators *)
  | Obs_amplitudes of Quipper_math.Cplx.t array
      (** statevector backend: the amplitude vector in internal order *)

(** Amplitude vectors equal up to a global phase (tolerance [eps] per
    component). *)
let equal_up_to_phase ?(eps = 1e-6) (a : Quipper_math.Cplx.t array)
    (b : Quipper_math.Cplx.t array) =
  let open Quipper_math in
  Array.length a = Array.length b
  &&
  (* reference component: the largest of [a] *)
  let k = ref 0 in
  Array.iteri (fun i x -> if Cplx.norm2 x > Cplx.norm2 a.(!k) then k := i) a;
  let ak = a.(!k) and bk = b.(!k) in
  if Cplx.norm bk < eps then Cplx.norm ak < eps
  else begin
    (* phase factor aligning b to a, unit modulus only if |ak| ~ |bk| *)
    let f = Cplx.smul (1.0 /. Cplx.norm2 bk) (Cplx.mul ak (Cplx.conj bk)) in
    abs_float (Cplx.norm f -. 1.0) < eps
    && Array.for_all2 (fun x y -> Cplx.norm (Cplx.sub x (Cplx.mul f y)) < eps) a b
  end

(** The right equivalence per observation kind; observations of different
    kinds are never equal. *)
let equal_observation ?eps (a : observation) (b : observation) =
  match (a, b) with
  | Obs_bits x, Obs_bits y -> x = y
  | Obs_tableau x, Obs_tableau y -> String.equal x y
  | Obs_amplitudes x, Obs_amplitudes y -> equal_up_to_phase ?eps x y
  | _ -> false

(** What a simulator provides before the sampling surface. [run_fun]
    executes a circuit-producing function gate by gate as emitted (the
    QRAM picture, dynamic lifting included); [run_circuit] walks an
    already-generated circuit. Backends raise
    [Errors.Error (Simulation _)] on gates outside their gate set and
    [Termination_assertion _] on violated assertive terminations. *)
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

  val run_circuit : ?seed:int -> Circuit.b -> bool list -> state
end

(** The simulator contract. *)
module type S = sig
  include BASE

  (** {2 Sampling surface}

      Stepping gates and terminal measurement used to be conflated:
      drawing N shots meant N full [run_circuit]s. The snapshot
      entrypoints split them — freeze the pre-measurement state once,
      then draw each shot from the frozen copy under its own RNG.

      The law (checked by the property tests, and what the shot service
      builds on): whenever [snapshot st = Some snap] for the state
      produced by [run_circuit b ins], then for every seed [s],
      [sample_from snap ~rng:(Rng.create s) outs] is bit-identical to
      [run_circuit ~seed:s b ins] followed by measuring/reading [outs]
      in order (i.e. to {!run_and_measure}). Backends certify the
      precondition themselves: [snapshot] returns [None] as soon as the
      run has consumed seeded randomness (a mid-circuit measurement),
      because then the state depends on the seed and no frozen copy
      could speak for other seeds. *)

  type snapshot

  val snapshot : state -> snapshot option
  (** Freeze the pre-measurement state, or [None] when sampling from a
      copy could not reproduce end-to-end runs (randomness already
      consumed, or the backend cannot snapshot). The frozen copy is
      immutable and shareable across domains. *)

  val sample_from :
    snapshot -> rng:Quipper_math.Rng.t -> Wire.endpoint list -> bool list
  (** Draw one shot from a frozen state: measure each [Q] endpoint and
      read each [C] endpoint in order, consuming randomness only
      from [rng]. *)
end

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)

module Statevector :
  S with type state = Statevector.state and type snapshot = Statevector.snapshot = struct
  include Statevector

  let name = "statevector"
  let observe st = Obs_amplitudes (amplitudes st)
end

module Clifford :
  S with type state = Clifford.state and type snapshot = Clifford.snapshot = struct
  include Clifford

  let name = "clifford"
  let observe st = Obs_tableau (canonical st)
end

module Classical : S with type state = Classical.state = struct
  include Classical

  let name = "classical"

  (* classically, measurement just reads the basis-state value; the wire
     keeps it as its classical value *)
  let measure = read
  let read_bit = read
  let set_bit = write
  let observe st = Obs_bits (bindings st)

  (* deterministic backend: every state snapshots, no randomness ever *)
  type snapshot = state

  let snapshot st = Some (Drive.Cenv.copy st)
  let sample_from snap ~rng:_ outs =
    Drive.readout ~measure:(read snap) ~read_bit:(read snap) outs
end

module Fused :
  S with type state = Fuse.state and type snapshot = Statevector.snapshot = struct
  include Fuse

  let name = "fused"
  let create ?seed () = create ?seed ()
  let observe st = Obs_amplitudes (amplitudes st)
  let run_circuit ?seed b inputs = run_circuit ?seed b inputs

  (* flush, then snapshot the underlying statevector: fused execution
     reassociates floats, but sampling happens on the flushed state with
     the statevector's own measure path, so the fused law mirrors the
     statevector one on the fused amplitudes *)
  type snapshot = Statevector.snapshot

  let sample_from = Statevector.sample_from
end

(** The law-checked default derivation for backends that cannot
    snapshot: [snapshot] always declines, so callers fall back to
    end-to-end re-simulation per shot — which satisfies the sampling
    law vacuously (there is never a [Some snap] to contradict it), and
    which the shot service's resimulation path makes bit-identical to
    the batched path by construction. [snapshot]'s type is empty, so
    [sample_from] is statically unreachable. *)
module Without_snapshot (B : BASE) : S with type state = B.state = struct
  include B

  type snapshot = |

  let snapshot _ = None
  let sample_from (snap : snapshot) ~rng:_ _ = match snap with _ -> .
end

(* ------------------------------------------------------------------ *)

let all : (module S) list =
  [ (module Classical); (module Clifford); (module Statevector); (module Fused) ]

let find name : (module S) =
  match
    List.find_opt (fun (module B : S) -> String.equal B.name name) all
  with
  | Some b -> b
  | None ->
      Errors.raise_ (Simulation (Fmt.str "backend: no simulator named %s" name))

(** Streaming simulation as a {!Quipper.Sink.t}: feed it to
    [Circ.run_streaming] to execute a circuit-producing function against
    any backend without materializing the circuit. Input wires are
    initialized from [inputs] (arity-checked against the declared input
    shape) exactly as [run_circuit] does; subroutine call gates are
    expanded on the fly by [Sink.unbox], so backends never see a
    [Subroutine] gate. [finish] renders the final state with [observe].

    On a box-free circuit the backend receives gate for gate what
    [run_circuit] applies after inlining, in the same allocation order —
    so at equal seeds the observations agree bit for bit. *)
let sink (module B : S) ?seed ~(inputs : bool list) () : observation Sink.t =
  let st = B.create ?seed () in
  Sink.unbox
    (Sink.make
       ~on_inputs:(fun es -> Drive.load B.name (B.apply_gate st) es inputs)
       ~on_gate:(fun g -> B.apply_gate st g)
       ~finish:(fun _ -> B.observe st)
       ())

(** Streaming {e fused} simulation. Unlike {!sink}, subroutine call
    gates are not structurally expanded: definitions are registered with
    the fuser as they complete, and call gates reach {!Fuse.apply_gate}
    intact, so repeated calls replay the memoized compiled block program
    instead of re-expanding the body. *)
let fused_sink ?config ?seed ~(inputs : bool list) () : observation Sink.t =
  let st = Fuse.create ?config ?seed () in
  Sink.make
    ~on_inputs:(fun es -> Drive.load "fused" (Fuse.apply_gate st) es inputs)
    ~on_gate:(fun g -> Fuse.apply_gate st g)
    ~on_subroutine_exit:(fun name sub -> Fuse.define st name sub)
    ~finish:(fun _ -> Obs_amplitudes (Fuse.amplitudes st))
    ()

(** Run a circuit and measure every qubit output (classical outputs are
    read), in output-arity order — the common differential-test move,
    written once over the contract. *)
let run_and_measure (module B : S) ?seed (b : Circuit.b) (inputs : bool list) :
    bool list =
  let st = B.run_circuit ?seed b inputs in
  (* inlining keeps main's outputs, so they need no flat circuit *)
  Drive.readout ~measure:(B.measure st) ~read_bit:(B.read_bit st)
    b.Circuit.main.Circuit.outputs
