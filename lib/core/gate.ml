(** Gates: the vertical elements of a circuit diagram.

    This is Quipper's *extended* circuit model (paper §4.2): besides unitary
    gates with positive and negative controls it contains explicit qubit
    initialisation ("0|−"), assertive termination ("−|0"), plain discards,
    measurements, classical logic gates, classically-controlled quantum
    gates (a quantum gate whose control list contains classical wires), and
    calls to named boxed subcircuits (§4.4.4). Comments with wire labels are
    gates too, so they survive transformations and appear in output. *)

type control = { cwire : Wire.t; cty : Wire.ty; positive : bool }

let pos_control w = { cwire = w; cty = Wire.Q; positive = true }
let neg_control w = { cwire = w; cty = Wire.Q; positive = false }

(** Names of primitive quantum gates with built-in semantics. Anything else
    is a user gate: it prints, counts, reverses and transforms fine, but the
    simulators reject it unless given its matrix. *)
type t =
  | Gate of {
      name : string;
      inv : bool;
      targets : Wire.t list; (* quantum targets, arity fixed by the name *)
      controls : control list;
    }
  | Rot of {
      name : string;
      angle : float;
      inv : bool;
      targets : Wire.t list;
      controls : control list;
    }
  | Phase of { angle : float; controls : control list }
      (** global phase e^{i*angle}, physically meaningful when controlled *)
  | Init of { ty : Wire.ty; value : bool; wire : Wire.t }
  | Term of { ty : Wire.ty; value : bool; wire : Wire.t }
      (** assertive termination: the programmer asserts the wire is in state
          [value]; the compiler may rely on it (paper §4.2.2) *)
  | Discard of { ty : Wire.ty; wire : Wire.t }
  | Measure of { wire : Wire.t }  (** turns a qubit wire into a bit wire *)
  | Cgate of { name : string; out : Wire.t; ins : Wire.t list }
      (** classical logic gate computing a fresh classical wire *)
  | Subroutine of {
      name : string;
      inv : bool;
      inputs : Wire.t list;
      outputs : Wire.t list;
      controls : control list;
    }
  | Comment of { text : string; labels : (Wire.t * string) list }

(* ------------------------------------------------------------------ *)
(* Properties of primitive gate names                                  *)

(** Number of quantum targets expected for a primitive name, if known. *)
let primitive_arity = function
  | "not" | "X" | "Y" | "Z" | "H" | "S" | "T" | "V" | "E" -> Some 1
  | "swap" | "W" -> Some 2
  | _ -> None

let self_inverse = function
  | "not" | "X" | "Y" | "Z" | "H" | "swap" | "W" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Kernel classification                                               *)

type fast_class =
  | Fast_x
  | Fast_y
  | Fast_z
  | Fast_s of bool
  | Fast_t of bool
  | Fast_h
  | Fast_swap
  | Fast_w
  | Fast_diag of float * float
  | Fast_generic

(** Classify a unitary gate for simulator kernel dispatch. Cheap: one
    match on the name, no matrix construction. Controls are irrelevant
    here — the statevector simulator folds them into one (mask, value)
    pair regardless of the kernel chosen. *)
let fast_class = function
  | Gate { name = "not" | "X"; _ } -> Fast_x
  | Gate { name = "Y"; _ } -> Fast_y
  | Gate { name = "Z"; _ } -> Fast_z
  | Gate { name = "S"; inv; _ } -> Fast_s inv
  | Gate { name = "T"; inv; _ } -> Fast_t inv
  | Gate { name = "H"; _ } -> Fast_h
  | Gate { name = "swap"; _ } -> Fast_swap
  | Gate { name = "W"; _ } -> Fast_w
  | Rot { name = "R" | "Ph"; angle; inv; _ } ->
      Fast_diag (0.0, if inv then -.angle else angle)
  | Rot { name = "Rz"; angle; inv; _ } ->
      let a = if inv then -.angle else angle in
      Fast_diag (-.a /. 2.0, a /. 2.0)
  | Rot { name = "exp(-i%Z)"; angle; inv; _ } ->
      let a = if inv then -.angle else angle in
      Fast_diag (-.a, a)
  | _ -> Fast_generic

(* ------------------------------------------------------------------ *)
(* Wire accessors                                                      *)

let controls = function
  | Gate { controls; _ } | Rot { controls; _ }
  | Phase { controls; _ }
  | Subroutine { controls; _ } -> controls
  | _ -> []

(* each domain's scratch set for the width-linear walks below *)
let marks = Domain.DLS.new_key Wire.Marks.create

(** All wires the gate touches, with the type each wire must have *when the
    gate fires* (for [Measure] that is the qubit side). *)
let wires gate : Wire.endpoint list =
  let ctl c = { Wire.wire = c.cwire; ty = c.cty } in
  match gate with
  | Gate { targets; controls; _ } | Rot { targets; controls; _ } ->
      List.map Wire.qw targets @ List.map ctl controls
  | Phase { controls; _ } -> List.map ctl controls
  | Init { ty; wire; _ } | Term { ty; wire; _ } | Discard { ty; wire } ->
      [ { Wire.wire; ty } ]
  | Measure { wire } -> [ Wire.qw wire ]
  | Cgate { out; ins; _ } -> Wire.cw out :: List.map Wire.cw ins
  | Subroutine { inputs; outputs; controls; _ } ->
      (* outputs may introduce wires not among the inputs *)
      let m = Domain.DLS.get marks in
      Wire.Marks.call m ~inputs ~outputs;
      let outs = List.filter (fun w -> Wire.Marks.find m w = 2) outputs in
      List.map Wire.qw inputs @ List.map Wire.qw outs @ List.map ctl controls
  | Comment { labels; _ } -> List.map (fun (w, _) -> Wire.qw w) labels

(* mark [w] with [tag], raising [No_cloning w] if it is already marked;
   these walks are top-level so they allocate no closure *)
let see1 m tag w =
  if Wire.Marks.find m w <> 0 then Errors.raise_ (No_cloning w);
  Wire.Marks.set m w tag

let rec see m tag = function
  | [] -> ()
  | w :: ws ->
      see1 m tag w;
      see m tag ws

let rec see_controls m = function
  | [] -> ()
  | c :: cs ->
      see1 m 2 c.cwire;
      see_controls m cs

(* a call's outputs that are among its inputs (tag 1) pass through *)
let rec see_outputs m = function
  | [] -> ()
  | w :: ws ->
      (match Wire.Marks.find m w with
      | 0 -> Wire.Marks.set m w 2
      | 1 -> ()
      | _ -> Errors.raise_ (No_cloning w));
      see_outputs m ws

(** Raise [Errors.Error (No_cloning w)] when a wire occurs twice in
    [wires g]; [w] is the first repeat in that list's order. Comments
    are exempt. Linear in the gate's width. *)
let check_distinct g =
  let m = Domain.DLS.get marks in
  Wire.Marks.clear m;
  match g with
  | Gate { targets; controls; _ } | Rot { targets; controls; _ } ->
      see m 2 targets;
      see_controls m controls
  | Phase { controls; _ } -> see_controls m controls
  | Init _ | Term _ | Discard _ | Measure _ | Comment _ -> ()
  | Cgate { out; ins; _ } ->
      see1 m 2 out;
      see m 2 ins
  | Subroutine { inputs; outputs; controls; _ } ->
      see m 1 inputs;
      see_outputs m outputs;
      see_controls m controls

(* ------------------------------------------------------------------ *)
(* Rewriting predicates                                                *)

type wire_action = Act_diag | Act_x | Act_other

(** What a unitary gate does to each of its {e target} wires, as far as
    commutation is concerned. Controls are always [Act_diag]: a control is
    a projector, diagonal in the computational basis. *)
let target_action = function
  | Gate { name = "not" | "X"; _ } -> Act_x
  | Gate { name = "Z" | "S" | "T"; _ } -> Act_diag
  | Rot { name = "R" | "Ph" | "Rz" | "exp(-i%Z)"; _ } -> Act_diag
  | Phase _ -> Act_diag (* no targets; for uniformity *)
  | _ -> Act_other

let is_unitary = function Gate _ | Rot _ | Phase _ -> true | _ -> false

(** Diagonal in the computational basis (controls included — a controlled
    diagonal is diagonal). Only unitary gates qualify. *)
let is_diagonal g = is_unitary g && target_action g = Act_diag

let targets = function
  | Gate { targets; _ } | Rot { targets; _ } -> targets
  | _ -> []

let wire_action g w =
  if Wire.mem w (targets g) then target_action g else Act_diag

(* Merge walks over two ascending distinct-wire prefixes [wa.(0..na)]
   and [wb.(0..nb)]; top-level rather than local so they allocate no
   closure, and typed as wire arrays so every comparison is an inline
   integer one rather than a call into the polymorphic compare. *)
let rec share (wa : Wire.t array) na i (wb : Wire.t array) nb j =
  i < na && j < nb
  &&
  let x = wa.(i) and y = wb.(j) in
  x = y || if x < y then share wa na (i + 1) wb nb j else share wa na i wb nb (j + 1)

let rec shared_factors_commute a (wa : Wire.t array) na i b (wb : Wire.t array) nb j =
  i >= na || j >= nb
  ||
  let x = wa.(i) and y = wb.(j) in
  if x = y then
    (match (wire_action a x, wire_action b x) with
    | Act_diag, Act_diag | Act_x, Act_x -> true
    | _ -> false)
    && shared_factors_commute a wa na (i + 1) b wb nb (j + 1)
  else if x < y then shared_factors_commute a wa na (i + 1) b wb nb j
  else shared_factors_commute a wa na i b wb nb (j + 1)

let factors g = is_diagonal g || List.length (targets g) <= 1

(** Sound syntactic commutation check. Gates on disjoint wire sets always
    commute. Two diagonal gates commute however they overlap. Otherwise
    both gates must decompose as sums of per-wire tensor factors (single
    target, controls being per-wire projectors), and on every shared wire
    the two factors must commute: diagonal against diagonal, or X against
    X (so e.g. two CNOTs sharing a target commute, a CNOT's control
    commutes with a Z or a T on the same wire, but a CNOT's control
    against another CNOT's target does not). Multi-target non-diagonal
    gates (swap, W) only commute by disjointness. Conservative [false]
    everywhere else — never claims commutation that does not hold.

    [commutes_sorted a wa na b wb nb] takes each gate's distinct wires
    in ascending order as the first [na] (resp. [nb]) cells of [wa]
    ([wb]) and allocates nothing. *)
let commutes_sorted a wa na b wb nb =
  if not (share wa na 0 wb nb 0) then true
  else if not (is_unitary a && is_unitary b) then false
  else if is_diagonal a && is_diagonal b then true
  else factors a && factors b && shared_factors_commute a wa na 0 b wb nb 0

let commutes a b =
  let sorted g =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.map (fun (e : Wire.endpoint) -> e.Wire.wire) (wires g)))
  in
  let wa = sorted a and wb = sorted b in
  commutes_sorted a wa (Array.length wa) b wb (Array.length wb)

(** The value of classical gate [name] on its input values, or [None]
    for a name or arity with no meaning: [not] takes one input; [and],
    [or] and [xor] take any number. *)
let eval_cgate name (ins : bool list) =
  match (name, ins) with
  | "not", [ a ] -> Some (not a)
  | "and", _ -> Some (List.for_all Fun.id ins)
  | "or", _ -> Some (List.exists Fun.id ins)
  | "xor", _ -> Some (List.fold_left ( <> ) false ins)
  | _ -> None

let control_equal a b = a.cwire = b.cwire && a.cty = b.cty && a.positive = b.positive

let rec occurrences c = function
  | [] -> 0
  | c' :: cs -> Bool.to_int (control_equal c c') + occurrences c cs

let rec same_counts cs1 cs2 = function
  | [] -> true
  | c :: cs -> occurrences c cs1 = occurrences c cs2 && same_counts cs1 cs2 cs

(* equal as multisets, without allocating: control lists are short *)
let same_controls cs1 cs2 =
  List.compare_lengths cs1 cs2 = 0 && same_counts cs1 cs2 cs1

let same_wires = List.equal Int.equal

(* The diagonal Clifford+T phases in pi/4 steps: [T] = 1, [S] = 2,
   [Z] = 4, a starred gate the negation mod 8 ([Z] is self-inverse). *)
let eighths = function
  | "T", inv -> Some (if inv then 7 else 1)
  | "S", inv -> Some (if inv then 6 else 2)
  | "Z", _ -> Some 4
  | _ -> None

(** Merge two gates acting on the same targets under the same controls
    into one: any two of [T]/[S]/[Z] and their inverses sum their phases
    ([T·T = S], [S·T* = T], [Z·S* = S], ...), same-name rotation
    addition ([Rz(a)·Rz(b) = Rz(a+b)], likewise [R]/[Ph] and
    [exp(-i%Z)]), and global-phase addition. A pair multiplying to the
    identity fuses to a zero-angle [Phase] under the pair's controls
    ({!is_identity}). The result is exact — no global-phase slack — so
    fusion is safe inside controllable boxed subcircuits. Returns [None]
    when the pair has no fusion. *)
let fusion a b =
  match (a, b) with
  | Gate ga, Gate gb
    when same_wires ga.targets gb.targets && same_controls ga.controls gb.controls -> (
      match (eighths (ga.name, ga.inv), eighths (gb.name, gb.inv)) with
      | Some x, Some y -> (
          let fused name inv = Some (Gate { ga with name; inv }) in
          match (x + y) mod 8 with
          | 0 -> Some (Phase { angle = 0.0; controls = ga.controls })
          | 1 -> fused "T" false
          | 2 -> fused "S" false
          | 4 -> fused "Z" false
          | 6 -> fused "S" true
          | 7 -> fused "T" true
          | _ -> None (* 3 and 5 eighths are no single gate *))
      | _ -> None)
  | Rot ra, Rot rb
    when String.equal ra.name rb.name && same_wires ra.targets rb.targets
         && same_controls ra.controls rb.controls ->
      let eff angle inv = if inv then -.angle else angle in
      let angle = eff ra.angle ra.inv +. eff rb.angle rb.inv in
      Some (Rot { ra with angle; inv = false })
  | Phase pa, Phase pb when same_controls pa.controls pb.controls ->
      Some (Phase { pa with angle = pa.angle +. pb.angle })
  | _ -> None

(** Is this gate the identity (a zero-angle rotation or phase)? Fusion can
    produce these; rewriting drops them. *)
let is_identity = function
  | Rot { name = "R" | "Ph" | "Rz" | "exp(-i%Z)"; angle = 0.0; _ } -> true
  | Phase { angle = 0.0; _ } -> true
  | _ -> false

(** Does the gate carry a rotation angle? ([Rot] or [Phase] — the
    parameter sites of a circuit family.) *)
let has_angle = function Rot _ | Phase _ -> true | _ -> false

(** Replace the angle of a [Rot]/[Phase]; other gates unchanged. *)
let with_angle g a =
  match g with
  | Rot r -> Rot { r with angle = a }
  | Phase p -> Phase { p with angle = a }
  | g -> g

(* ------------------------------------------------------------------ *)
(* Inversion                                                           *)

(** The inverse gate. Raises [Errors.Error (Not_reversible _)] for gates
    without one. Note that [Init] and [Term] are inverses of each other:
    this is the formal content of §4.2.2 — circuits with initialisations and
    assertive terminations are unitary on the asserted subspace, so Quipper
    reverses them without complaint. *)
let inverse = function
  | Gate g ->
      if self_inverse g.name then Gate g else Gate { g with inv = not g.inv }
  | Rot r -> Rot { r with inv = not r.inv }
  | Phase p -> Phase { p with angle = -.p.angle }
  | Init { ty; value; wire } -> Term { ty; value; wire }
  | Term { ty; value; wire } -> Init { ty; value; wire }
  | Discard _ -> Errors.raise_ (Not_reversible "discard")
  | Measure _ -> Errors.raise_ (Not_reversible "measure")
  | Cgate { name; _ } -> Errors.raise_ (Not_reversible ("classical gate " ^ name))
  | Subroutine s ->
      Subroutine
        { s with inv = not s.inv; inputs = s.outputs; outputs = s.inputs }
  | Comment c -> Comment c

let is_comment = function Comment _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Control handling                                                    *)

(** Can this gate accept (additional) controls? Everything unitary can;
    initialisation and termination are control-neutral (creating an ancilla
    in |0> commutes with any control), so they are let through unchanged;
    the rest cannot appear in a controlled block. *)
type controllability = Controllable | Control_neutral | Not_controllable of string

let controllability = function
  | Gate _ | Rot _ | Phase _ | Subroutine _ -> Controllable
  | Init _ | Term _ | Comment _ -> Control_neutral
  | Discard _ -> Not_controllable "discard"
  | Measure _ -> Not_controllable "measure"
  | Cgate { name; _ } -> Not_controllable ("classical gate " ^ name)

(** Add controls to a gate. Precondition: [controllability] allowed it. *)
let add_controls extra gate =
  if extra = [] then gate
  else
    match gate with
    | Gate g -> Gate { g with controls = g.controls @ extra }
    | Rot r -> Rot { r with controls = r.controls @ extra }
    | Phase p -> Phase { p with controls = p.controls @ extra }
    | Subroutine s -> Subroutine { s with controls = s.controls @ extra }
    | Init _ | Term _ | Comment _ -> gate
    | Discard _ | Measure _ | Cgate _ ->
        Errors.raise_
          (Not_controllable
             (match gate with
             | Discard _ -> "discard"
             | Measure _ -> "measure"
             | _ -> "classical gate"))

(* ------------------------------------------------------------------ *)
(* Renaming (used when inlining boxed subcircuits)                     *)

let rename_control f c = { c with cwire = f c.cwire }

let rename f = function
  | Gate g ->
      Gate
        { g with
          targets = List.map f g.targets;
          controls = List.map (rename_control f) g.controls }
  | Rot r ->
      Rot
        { r with
          targets = List.map f r.targets;
          controls = List.map (rename_control f) r.controls }
  | Phase p -> Phase { p with controls = List.map (rename_control f) p.controls }
  | Init i -> Init { i with wire = f i.wire }
  | Term t -> Term { t with wire = f t.wire }
  | Discard d -> Discard { d with wire = f d.wire }
  | Measure { wire } -> Measure { wire = f wire }
  | Cgate c -> Cgate { c with out = f c.out; ins = List.map f c.ins }
  | Subroutine s ->
      Subroutine
        { s with
          inputs = List.map f s.inputs;
          outputs = List.map f s.outputs;
          controls = List.map (rename_control f) s.controls }
  | Comment c ->
      Comment { c with labels = List.map (fun (w, l) -> (f w, l)) c.labels }

(* ------------------------------------------------------------------ *)
(* Pretty printing (text format, one gate per line)                    *)

let pp_control ppf c =
  Fmt.pf ppf "%s%d%s"
    (if c.positive then "+" else "-")
    c.cwire
    (match c.cty with Wire.Q -> "" | Wire.C -> "c")

let pp_controls ppf = function
  | [] -> ()
  | cs -> Fmt.pf ppf " with controls=[%a]" Fmt.(list ~sep:(any ",") pp_control) cs

let pp_wires = Fmt.(list ~sep:(any ",") int)

let pp ppf = function
  | Gate { name; inv; targets; controls } ->
      Fmt.pf ppf "QGate[%S]%s(%a)%a" name
        (if inv then "*" else "")
        pp_wires targets pp_controls controls
  | Rot { name; angle; inv; targets; controls } ->
      Fmt.pf ppf "QRot[%S,%g]%s(%a)%a" name angle
        (if inv then "*" else "")
        pp_wires targets pp_controls controls
  | Phase { angle; controls } ->
      Fmt.pf ppf "GPhase[%g]%a" angle pp_controls controls
  | Init { ty = Wire.Q; value; wire } ->
      Fmt.pf ppf "QInit%d(%d)" (Bool.to_int value) wire
  | Init { ty = Wire.C; value; wire } ->
      Fmt.pf ppf "CInit%d(%d)" (Bool.to_int value) wire
  | Term { ty = Wire.Q; value; wire } ->
      Fmt.pf ppf "QTerm%d(%d)" (Bool.to_int value) wire
  | Term { ty = Wire.C; value; wire } ->
      Fmt.pf ppf "CTerm%d(%d)" (Bool.to_int value) wire
  | Discard { ty = Wire.Q; wire } -> Fmt.pf ppf "QDiscard(%d)" wire
  | Discard { ty = Wire.C; wire } -> Fmt.pf ppf "CDiscard(%d)" wire
  | Measure { wire } -> Fmt.pf ppf "QMeas(%d)" wire
  | Cgate { name; out; ins } ->
      Fmt.pf ppf "CGate[%S](%d;%a)" name out pp_wires ins
  | Subroutine { name; inv; inputs; outputs; controls } ->
      Fmt.pf ppf "Subroutine[%S]%s(%a) -> (%a)%a" name
        (if inv then "*" else "")
        pp_wires inputs pp_wires outputs pp_controls controls
  | Comment { text; labels } ->
      Fmt.pf ppf "Comment[%S]%a" text
        Fmt.(
          list ~sep:nop (fun ppf (w, l) -> Fmt.pf ppf " %d:%S" w l))
        labels

let to_string = Fmt.to_to_string pp

(* ------------------------------------------------------------------ *)
(* Pauli-frame conjugation                                             *)

type frame_action =
  | Frame_id
  | Frame_pauli of Wire.t * bool * bool
  | Frame_h of Wire.t
  | Frame_s of Wire.t
  | Frame_v of Wire.t
  | Frame_cnot of Wire.t * Wire.t
  | Frame_cz of Wire.t * Wire.t
  | Frame_swap of Wire.t * Wire.t

(** How the frame engine conjugates a Pauli frame through [g], classical
    controls stripped (the engine resolves those against its reference
    run). The accepted set mirrors {!Quipper_sim.Clifford.apply_gate}
    exactly — same gates, same control shapes — so "eligible for the
    frame engine" and "accepted by the clifford backend" never drift
    apart. Signs are deliberately dropped: a frame is a Pauli up to
    phase, and every comparison downstream (measured bits, canonical
    tableaux, amplitudes up to global phase) is phase-blind.

    [Error what] names the offending gate and wires in the clifford
    backend's phrasing, for fallback reports. *)
let frame_action (g : t) : (frame_action, string) result =
  let not_clifford ?(wires = []) what =
    let pp_wires ppf = function
      | [] -> ()
      | [ w ] -> Fmt.pf ppf " on wire %d" w
      | ws ->
          Fmt.pf ppf " on wires %s" (String.concat "," (List.map string_of_int ws))
    in
    Error (Fmt.str "%s%a is not a Clifford operation" what pp_wires wires)
  in
  let quantum cs = List.filter (fun c -> c.cty = Wire.Q) cs in
  match g with
  | Gate { name; inv = _; targets; controls } -> (
      match (name, targets, quantum controls) with
      | ("not" | "X"), [ t ], [] -> Ok (Frame_pauli (t, true, false))
      | ("not" | "X"), [ t ], [ c ] ->
          (* negative polarity only wraps the CNOT in X's: frame-invisible *)
          Ok (Frame_cnot (c.cwire, t))
      | ("not" | "X"), ts, _ -> not_clifford ~wires:ts "multiply-controlled not"
      | "Y", [ t ], [] -> Ok (Frame_pauli (t, true, true))
      | "Z", [ t ], [] -> Ok (Frame_pauli (t, false, true))
      | "Z", [ t ], [ c ] when c.positive -> Ok (Frame_cz (c.cwire, t))
      | "H", [ t ], [] -> Ok (Frame_h t)
      | "S", [ t ], [] -> Ok (Frame_s t) (* S* differs from S by signs only *)
      | "V", [ t ], [] -> Ok (Frame_v t)
      | "swap", [ a; b ], [] -> Ok (Frame_swap (a, b))
      | n, ts, _ -> not_clifford ~wires:ts n)
  | Rot { name; targets; _ } -> not_clifford ~wires:targets name
  | Phase { controls; _ } -> (
      (* an uncontrolled (or classically-controlled) phase is global:
         invisible to every phase-blind comparison. A quantum-controlled
         phase is a real diagonal gate on the statevector backend, so it
         is conservatively rejected even though the clifford backend
         ignores it. *)
      match quantum controls with
      | [] -> Ok Frame_id
      | cs -> not_clifford ~wires:(List.map (fun c -> c.cwire) cs) "controlled phase")
  | Init _ | Term _ | Discard _ | Measure _ | Cgate _ | Comment _ ->
      (* structural gates: the frame engine handles these itself *)
      Ok Frame_id
  | Subroutine { name; _ } -> Error (Fmt.str "subroutine call %s (inline first)" name)
