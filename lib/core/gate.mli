(** Gates: the vertical elements of a circuit diagram, in Quipper's
    {e extended} circuit model (paper §4.2).

    Beyond unitary gates with positive and negative controls, the model
    includes explicit qubit initialisation ("0|-") and {e assertive}
    termination ("-|0", §4.2.2), plain discards, measurements, classical
    logic gates, classically-controlled quantum gates (a control list may
    mix quantum and classical wires), and calls to named boxed subcircuits
    (§4.4.4). Comments with wire labels are gates too, so they survive
    transformation and appear in output. *)

type control = { cwire : Wire.t; cty : Wire.ty; positive : bool }
(** A signed control: [positive = false] is the "empty dot" (fires on 0). *)

val pos_control : Wire.t -> control
val neg_control : Wire.t -> control

type t =
  | Gate of {
      name : string;
      inv : bool;
      targets : Wire.t list;
      controls : control list;
    }
      (** A named unitary. Primitive names with built-in semantics:
          ["not"]/["X"], ["Y"], ["Z"], ["H"], ["S"], ["T"],
          ["V"] (sqrt of not), ["W"] (the BWT basis change), ["swap"].
          Other names are user gates: they print, count, reverse and
          transform, but the simulators reject them. *)
  | Rot of {
      name : string;
      angle : float;
      inv : bool;
      targets : Wire.t list;
      controls : control list;
    }
      (** Parameterised rotations: ["exp(-i%Z)"], ["Rz"], ["Rx"],
          ["R"]/["Ph"] (diag(1, e^{i angle})). *)
  | Phase of { angle : float; controls : control list }
      (** Global phase e^{i angle}; physically meaningful when controlled. *)
  | Init of { ty : Wire.ty; value : bool; wire : Wire.t }
  | Term of { ty : Wire.ty; value : bool; wire : Wire.t }
      (** Assertive termination: the programmer asserts the wire is in
          state [value]; the compiler may rely on it (§4.2.2). *)
  | Discard of { ty : Wire.ty; wire : Wire.t }
  | Measure of { wire : Wire.t }
      (** Turns a qubit wire into a classical wire of the same id. *)
  | Cgate of { name : string; out : Wire.t; ins : Wire.t list }
      (** A classical logic gate computing a fresh classical wire;
          built-in names: ["xor"], ["and"], ["or"], ["not"]. *)
  | Subroutine of {
      name : string;
      inv : bool;
      inputs : Wire.t list;
      outputs : Wire.t list;
      controls : control list;
    }
      (** A call to a boxed subcircuit in the enclosing namespace. *)
  | Comment of { text : string; labels : (Wire.t * string) list }

(** A cheap classification of unitary gates, used by the statevector
    simulator to dispatch to specialised in-place kernels instead of the
    generic matrix path. Permutation-like gates ([Fast_x], [Fast_swap],
    which also cover CNOT/Toffoli/controlled-swap once controls are
    folded into an index mask) become index swaps; diagonal gates become
    phase multiplies; only H and W need a butterfly. *)
type fast_class =
  | Fast_x  (** not/X: swap the pair of amplitudes *)
  | Fast_y
  | Fast_z
  | Fast_s of bool  (** [true] = the adjoint S* *)
  | Fast_t of bool  (** [true] = the adjoint T* *)
  | Fast_h  (** the 1-qubit butterfly *)
  | Fast_swap
  | Fast_w  (** the BWT basis change: a butterfly on the odd subspace *)
  | Fast_diag of float * float
      (** [Fast_diag (a0, a1)] is diag(e^{i a0}, e^{i a1}): the R/Ph, Rz
          and exp(-i%Z) rotations, inversion already folded in *)
  | Fast_generic  (** anything else: full 2x2/4x4 matrix application *)

val fast_class : t -> fast_class
(** Classify a [Gate]/[Rot] for kernel dispatch; every non-unitary
    constructor and every unrecognised name is [Fast_generic]. *)

val primitive_arity : string -> int option
(** Number of quantum targets a primitive gate name expects, if known. *)

val self_inverse : string -> bool

(** {2 Rewriting predicates}

    The algebraic facts the optimizer subsystem (the DAG-based peephole
    rewriting in [lib/opt]) relies on. All of them are exact —
    no global-phase slack — so they are safe inside boxed subcircuits
    that may be called under controls. *)

(** A unitary gate's action on one of its wires: diagonal in the
    computational basis (controls always are), an X flip, or anything
    else. *)
type wire_action = Act_diag | Act_x | Act_other

val is_unitary : t -> bool
(** [Gate]/[Rot]/[Phase] — the constructors with unitary semantics. *)

val is_diagonal : t -> bool
(** Diagonal in the computational basis, controls included. *)

val targets : t -> Wire.t list
(** Target wires of a [Gate]/[Rot]; [[]] for every other constructor. *)

val wire_action : t -> Wire.t -> wire_action
(** Action on a specific wire ([Act_diag] for control wires). Only
    meaningful for wires the gate touches. *)

val commutes : t -> t -> bool
(** Sound syntactic commutation: [true] only when the two gates provably
    commute (disjoint wires; both diagonal; or per-shared-wire actions
    that pairwise commute — diag/diag or X/X). Conservative [false]
    otherwise. *)

val commutes_sorted : t -> Wire.t array -> int -> t -> Wire.t array -> int -> bool
(** [commutes_sorted a wa na b wb nb] is [commutes a b], given each
    gate's distinct wires in ascending order as the first [na] (resp.
    [nb]) cells of [wa] ([wb]). Allocates nothing: the streaming
    optimizer's window calls it on wire arrays cached per entry. *)

val eval_cgate : string -> bool list -> bool option
(** The value of a [Cgate] with this name on these input values: [not]
    of one input, [and]/[or]/[xor] of any number; [None] for any other
    name or arity. The simulators and the optimizer's constant folding
    all evaluate classical gates through this one function. *)

val control_equal : control -> control -> bool
(** Same wire, type and polarity. *)

val fusion : t -> t -> t option
(** Fuse two gates on identical targets and controls into one: any two
    of [T]/[S]/[Z] and their inverses, phases summed in pi/4 steps
    ([T·T = S], [S·T* = T], [Z·S* = S]; 3 or 5 steps do not fuse);
    same-name rotation-angle addition; global-phase addition. A pair
    that multiplies to the identity fuses to a gate satisfying
    {!is_identity}. [None] when the pair has no fusion. *)

val is_identity : t -> bool
(** A zero-angle rotation or phase (fusion can produce these). *)

val has_angle : t -> bool
(** [Rot] or [Phase] — the gates carrying an angle parameter (the
    angle sites of {!Circuit.angles}). *)

val with_angle : t -> float -> t
(** Replace a [Rot]/[Phase] angle; other gates are returned unchanged. *)

val controls : t -> control list

val wires : t -> Wire.endpoint list
(** Every wire the gate touches, with the type each must have when the
    gate fires (for [Measure], the qubit side). A call lists its inputs,
    then its outputs not among the inputs, then its controls. Linear in
    the gate's width. *)

val check_distinct : t -> unit
(** Raise [Errors.Error (No_cloning w)] when a wire occurs twice in
    {!wires}; [w] is the first repeat in that list's order. Comments are
    exempt: their labels may repeat. Linear in the gate's width. *)

val inverse : t -> t
(** The inverse gate. [Init] and [Term] swap — the formal content of
    §4.2.2. Raises {!Errors.Error} [(Not_reversible _)] on measurements,
    discards and classical gates. *)

val is_comment : t -> bool

type controllability =
  | Controllable
  | Control_neutral
      (** Initialisation/termination/comments: they commute with any
          control and pass through controlled blocks unchanged. *)
  | Not_controllable of string

val controllability : t -> controllability

val add_controls : control list -> t -> t
(** Append controls to a gate; the identity on control-neutral gates;
    raises on uncontrollable ones. *)

val rename_control : (Wire.t -> Wire.t) -> control -> control

val rename : (Wire.t -> Wire.t) -> t -> t
(** Apply a wire renaming (used when inlining boxed subcircuits). *)

val pp : Format.formatter -> t -> unit
(** One-line text form, e.g.
    [QGate["not"](3) with controls=[+1,-2]]. *)

val to_string : t -> string

(** {2 Pauli-frame conjugation}

    Conjugation rules for the Pauli-frame fault engine
    ([Quipper_sim.Frame]): how pushing a Pauli error frame (an (x,z)
    bitpair per qubit wire) past this gate transforms it, with all signs
    dropped (frames are Paulis up to phase). The accepted gate set
    mirrors the clifford backend's exactly. *)
type frame_action =
  | Frame_id  (** Paulis, phases, and structural gates: frame unchanged *)
  | Frame_pauli of Wire.t * bool * bool
      (** The gate {e is} a single-wire Pauli [(wire, x, z)]: frame
          unchanged by conjugation, but if the gate's firing diverges
          per-trial (classical controls), diverging trials just toggle
          these frame bits. *)
  | Frame_h of Wire.t  (** swap x and z *)
  | Frame_s of Wire.t  (** z ^= x (S and S* agree up to sign) *)
  | Frame_v of Wire.t  (** x ^= z (V = HSH up to phase) *)
  | Frame_cnot of Wire.t * Wire.t  (** (control, target): x spreads down, z up *)
  | Frame_cz of Wire.t * Wire.t  (** z_a ^= x_b and z_b ^= x_a *)
  | Frame_swap of Wire.t * Wire.t

val frame_action : t -> (frame_action, string) result
(** The conjugation rule for a gate, classical controls stripped.
    [Error what] for gates outside the clifford backend's set, [what]
    phrased like the clifford backend's rejections (gate and wires
    named). *)
