(** The circuit-construction monad: Quipper's [Circ].

    A computation of type ['a t] describes a quantum operation in the
    procedural paradigm of the paper (§4.4.1): qubits are held in variables,
    gates are applied one at a time, and the same code can be *run* in
    different ways (§4.4.5) — accumulated into a circuit, counted, printed,
    or executed against a simulator, including the QRAM model with dynamic
    lifting (§4.3).

    Concretely ['a t = ctx -> 'a]: a reader over a mutable builder context.
    OCaml's strict evaluation makes the order of gate emission the order of
    evaluation, which is the semantics Quipper obtains from its lazy state
    monad. The context carries the gate sink, the ambient control context
    ([with_controls], §4.4.2), the live-wire map used for the run-time
    physicality checks the paper describes in §4.1 (no-cloning, no use of
    dead wires), and the namespace of boxed subcircuits (§4.4.4).

    The live map is one {!Wire.Itbl} for every scope. A capture (the body
    of a box or of a reversal) sees only the wires it allocated: they are
    the ids from [c.fresh] at its entry ([floor]) upward, since ids are
    handed out in order and a body cannot reach its caller's wires.
    Entering a capture therefore copies nothing, and leaving it unbinds
    only the body's own wires. {!reverse_fun} walks the captured gates
    backwards once, inverting each and renaming it through a dense array
    indexed from [floor], then sends it through {!emit}; fresh ids are
    handed out in the order a renaming table would. *)

open Wire

type ctx = {
  mutable fresh : Wire.t;
  live : Wire.Itbl.t;
      (* live wire -> (insertion stamp lsl 1) lor (0 for Q, 1 for C) *)
  mutable stamp : int; (* the next insertion stamp *)
  mutable floor : Wire.t;
      (* the innermost capture's first wire id (min_int at top level): the
         wires in scope are the live ones from here up *)
  mutable base : int; (* live wires of the enclosing scopes *)
  mutable peak : int;
      (* most live wires since the innermost scope began or was restored *)
  mutable restores : (int * int) list;
      (* exits of captures nested in the innermost capture, newest first:
         the stamp at the nested entry and this scope's [peak - base] then.
         Only read to name a leaked wire, see [leaked_wire]. *)
  declared : Wire.Marks.t; (* [capture]'s scratch: the declared outputs *)
  mutable controls : Gate.control list;
  mutable buf : Gate.t Vec.t;
  subs : (string, Circuit.subroutine) Hashtbl.t;
  mutable sub_order : string list; (* reversed definition order *)
  mutable extraction_depth : int;
  inputs : Wire.endpoint Vec.t;
  boxing : bool;
  materialize : bool;
      (* when false (streaming runs), top-level gates are not retained in
         [buf] — except inside [with_computed] sandwiches, see [retain] *)
  mutable retain : int;
      (* nesting count of regions whose gates must stay in [buf] even in
         a non-materializing run, because they are re-read to emit
         inverses ([with_computed]'s uncompute half). When the count
         drops to zero the buffer is cleared, bounding streaming memory
         by the largest sandwich instead of the whole circuit. *)
  mutable remap : Wire.t array;
      (* [box]'s scratch: the actual wire of each body input, by position;
         [reverse_fun]'s: the actual wire of each body wire, by id - floor *)
  on_emit : (Gate.t -> unit) option;
  on_sub_enter : (string -> unit) option;
  on_sub_exit : (string -> Circuit.subroutine -> unit) option;
  lift : (ctx -> Wire.t -> bool) option;
}

type 'a t = ctx -> 'a

(* ------------------------------------------------------------------ *)
(* Monad structure                                                     *)

let return x : 'a t = fun _ -> x
let bind (m : 'a t) (f : 'a -> 'b t) : 'b t = fun c -> f (m c) c
let map (m : 'a t) (f : 'a -> 'b) : 'b t = fun c -> f (m c)

let ( let* ) = bind
let ( let+ ) = map
let ( >>= ) = bind
let ( >> ) (m : 'a t) (n : 'b t) : 'b t = fun c -> ignore (m c); n c

(** Kleisli iteration helpers. *)
let rec mapm (f : 'a -> 'b t) (l : 'a list) : 'b list t =
  match l with
  | [] -> return []
  | x :: tl ->
      let* y = f x in
      let* ys = mapm f tl in
      return (y :: ys)

(* [f x >> iterm f tl] would build the whole chain of per-element
   closures before the first gate runs — O(total gates) live memory,
   which defeats streaming on loop-heavy programs. Consume the list at
   run time instead, so each element's closure is garbage as soon as it
   has executed. *)
let rec iterm (f : 'a -> unit t) (l : 'a list) : unit t =
 fun c ->
  match l with
  | [] -> ()
  | x :: tl ->
      f x c;
      iterm f tl c

let rec foldm (f : 'acc -> 'a -> 'acc t) (acc : 'acc) (l : 'a list) : 'acc t =
  match l with
  | [] -> return acc
  | x :: tl ->
      let* acc = f acc x in
      foldm f acc tl

(** [iterate n f x] applies the circuit-producing function [f] to [x], [n]
    times in sequence (e.g. Trotter steps, Grover iterations). *)
let rec iterate n (f : 'a -> 'a t) (x : 'a) : 'a t =
  if n <= 0 then return x
  else
    let* x = f x in
    iterate (n - 1) f x

let for_ lo hi (f : int -> unit t) : unit t =
 fun c ->
  for i = lo to hi do
    f i c
  done

(* ------------------------------------------------------------------ *)
(* Context management                                                  *)

let create_ctx ?(boxing = true) ?(materialize = true) ?on_emit ?on_sub_enter
    ?on_sub_exit ?lift () =
  {
    fresh = 0;
    live = Wire.Itbl.create 64;
    stamp = 0;
    floor = min_int;
    base = 0;
    peak = 0;
    restores = [];
    declared = Wire.Marks.create ();
    controls = [];
    buf = Vec.create ();
    subs = Hashtbl.create 16;
    sub_order = [];
    extraction_depth = 0;
    inputs = Vec.create ();
    boxing;
    materialize;
    retain = 0;
    remap = [||];
    on_emit;
    on_sub_enter;
    on_sub_exit;
    lift;
  }

let ty_bit : Wire.ty -> int = function Q -> 0 | C -> 1
let bit_ty v : Wire.ty = if v land 1 = 0 then Q else C

(* bind a wire that is not live *)
let add_live c w ty =
  Wire.Itbl.replace c.live w ((c.stamp lsl 1) lor ty_bit ty);
  c.stamp <- c.stamp + 1;
  let n = Wire.Itbl.length c.live in
  if n > c.peak then c.peak <- n

let fresh_wire c ty =
  let w = c.fresh in
  c.fresh <- c.fresh + 1;
  add_live c w ty;
  w

(** Allocate a wire id without registering it as live: the [Init] (or
    [Cgate], or [Subroutine] output) that brings the wire to life registers
    it when it passes through [emit]. This keeps gate emission closed under
    inversion: the mirror image of a [Term] is an [Init] for a wire nobody
    pre-registered. *)
let alloc_id c =
  let w = c.fresh in
  c.fresh <- c.fresh + 1;
  w

(** Allocate a circuit *input* wire (used by run drivers before invoking the
    user's circuit-producing function). *)
let alloc_input c ty =
  let w = fresh_wire c ty in
  Vec.push c.inputs { Wire.wire = w; ty };
  w

let live_outputs c =
  Wire.Itbl.fold (fun w v acc -> { Wire.wire = w; ty = bit_ty v } :: acc) c.live []
  |> List.sort (fun (a : Wire.endpoint) b -> Int.compare a.wire b.wire)

(* ------------------------------------------------------------------ *)
(* The gate emitter: the single point through which every gate passes   *)

let check_live c w ty =
  let v = Wire.Itbl.find c.live w in
  if v < 0 || w < c.floor then Errors.raise_ (Dead_wire w)
  else if v land 1 <> ty_bit ty then
    Errors.raise_ (Wire_type { wire = w; expected = ty; got = bit_ty v })

let rec check_wires c ty = function
  | [] -> ()
  | w :: ws ->
      check_live c w ty;
      check_wires c ty ws

let rec check_controls c = function
  | [] -> ()
  | (k : Gate.control) :: ks ->
      check_live c k.cwire k.cty;
      check_controls c ks

(* a wire comes to life only under an id allocated in its own scope *)
let check_born c w =
  if w < c.floor || w >= c.fresh then
    Errors.invalidf "wire %d was not allocated in this scope" w

(* a call output: a wire still live keeps its stamp *)
let set_live c w ty =
  let v = Wire.Itbl.find c.live w in
  if v >= 0 && w >= c.floor then Wire.Itbl.replace c.live w ((v land lnot 1) lor ty_bit ty)
  else begin
    check_born c w;
    add_live c w ty
  end

(** Emit one gate: apply ambient controls, run the physicality checks,
    update the live table, append to the sink, notify the executor. The
    wires of [g] must already be concrete (allocation happens before). *)
let emit c (g : Gate.t) =
  let g =
    if c.controls = [] then g
    else
      match Gate.controllability g with
      | Gate.Controllable -> Gate.add_controls c.controls g
      | Gate.Control_neutral -> g
      | Gate.Not_controllable what -> Errors.raise_ (Not_controllable what)
  in
  Gate.check_distinct g;
  (match g with
  | Gate.Gate { name; targets; controls; _ } ->
      (match Gate.primitive_arity name with
      | Some n when n <> List.length targets ->
          Errors.invalidf "gate %s expects %d targets" name n
      | _ -> ());
      check_wires c Wire.Q targets;
      check_controls c controls
  | Gate.Rot { targets; controls; _ } ->
      check_wires c Wire.Q targets;
      check_controls c controls
  | Gate.Phase { controls; _ } ->
      check_controls c controls
  | Gate.Init { ty; wire; _ } ->
      check_born c wire;
      if Wire.Itbl.mem c.live wire then
        Errors.invalidf "init of already-live wire %d" wire
      else add_live c wire ty
  | Gate.Term { ty; wire; _ } | Gate.Discard { ty; wire } ->
      check_live c wire ty;
      Wire.Itbl.remove c.live wire
  | Gate.Measure { wire } ->
      check_live c wire Wire.Q;
      set_live c wire Wire.C
  | Gate.Cgate { out; ins; _ } ->
      check_wires c Wire.C ins;
      check_born c out;
      if Wire.Itbl.mem c.live out then
        Errors.invalidf "cgate output wire %d already live" out
      else add_live c out Wire.C
  | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
      check_controls c controls;
      let sub =
        match Hashtbl.find_opt c.subs name with
        | Some s -> s
        | None -> Errors.raise_ (Unknown_subroutine name)
      in
      if controls <> [] && not sub.controllable then
        Errors.raise_ (Not_controllable ("subroutine " ^ name));
      let d_in = if inv then sub.circ.outputs else sub.circ.inputs in
      let d_out = if inv then sub.circ.inputs else sub.circ.outputs in
      List.iter2 (fun w (e : Wire.endpoint) -> check_live c w e.ty) inputs d_in;
      List.iter (fun w -> Wire.Itbl.remove c.live w) inputs;
      List.iter2 (fun w (e : Wire.endpoint) -> set_live c w e.ty) outputs d_out
  | Gate.Comment _ -> ());
  (* a capture in progress ([extraction_depth > 0]) records into its own
     buffer unconditionally; at top level a non-materializing run keeps
     gates only inside retained ([with_computed]) regions *)
  if c.materialize || c.retain > 0 || c.extraction_depth > 0 then
    Vec.push c.buf g;
  match c.on_emit with
  | Some f when c.extraction_depth = 0 -> f g
  | _ -> ()

(* Bracket a region whose emitted gates are re-read from the buffer (to
   emit their inverses). In a materializing run this is a no-op; in a
   streaming run it keeps the sandwich buffered and clears the buffer
   when the outermost such region closes. *)
let begin_retain c = c.retain <- c.retain + 1

let end_retain c =
  c.retain <- c.retain - 1;
  if c.retain = 0 && (not c.materialize) && c.extraction_depth = 0 then
    Vec.clear c.buf

(* ------------------------------------------------------------------ *)
(* Basic gates                                                         *)

let gate1 name (Qubit q) : unit t =
 fun c -> emit c (Gate.Gate { name; inv = false; targets = [ q ]; controls = [] })

(** Apply a named single-qubit gate and hand the qubit back (the paper's
    functional style: [a <- hadamard a]). *)
let gate1' name q : qubit t = fun c -> gate1 name q c; q

let qnot q = gate1' "not" q
let qnot_ q = gate1 "not" q
let hadamard q = gate1' "H" q
let hadamard_ q = gate1 "H" q
let gate_X = gate1' "X"
let gate_Y = gate1' "Y"
let gate_Z = gate1' "Z"
let gate_S = gate1' "S"
let gate_T = gate1' "T"
let gate_V = gate1' "V"
let gate_E = gate1' "E"

let gate_S_inv (Qubit q) : unit t =
 fun c -> emit c (Gate.Gate { name = "S"; inv = true; targets = [ q ]; controls = [] })

let gate_T_inv (Qubit q) : unit t =
 fun c -> emit c (Gate.Gate { name = "T"; inv = true; targets = [ q ]; controls = [] })

let gate_V_inv (Qubit q) : unit t =
 fun c -> emit c (Gate.Gate { name = "V"; inv = true; targets = [ q ]; controls = [] })

let named_gate name (qs : qubit list) : unit t =
 fun c ->
  emit c
    (Gate.Gate
       { name; inv = false; targets = List.map qubit_wire qs; controls = [] })

let gate_W (Qubit a) (Qubit b) : unit t =
 fun c -> emit c (Gate.Gate { name = "W"; inv = false; targets = [ a; b ]; controls = [] })

let gate_W_inv (Qubit a) (Qubit b) : unit t =
 fun c -> emit c (Gate.Gate { name = "W"; inv = true; targets = [ a; b ]; controls = [] })

let swap (Qubit a) (Qubit b) : unit t =
 fun c -> emit c (Gate.Gate { name = "swap"; inv = false; targets = [ a; b ]; controls = [] })

(** [cnot ~control ~target]: sugar for a singly-controlled not. *)
let cnot ~control:(Qubit a) ~target:(Qubit b) : unit t =
 fun c ->
  emit c
    (Gate.Gate
       { name = "not"; inv = false; targets = [ b ];
         controls = [ Gate.pos_control a ] })

let toffoli ~c1:(Qubit a) ~c2:(Qubit b) ~target:(Qubit t) : unit t =
 fun c ->
  emit c
    (Gate.Gate
       { name = "not"; inv = false; targets = [ t ];
         controls = [ Gate.pos_control a; Gate.pos_control b ] })

(** Rotation gates. [rot_expZt t q] is the e^{-iZt} gate of Figure 1. *)
let rot_expZt theta (Qubit q) : unit t =
 fun c ->
  emit c
    (Gate.Rot { name = "exp(-i%Z)"; angle = theta; inv = false; targets = [ q ]; controls = [] })

let rot_Z theta (Qubit q) : unit t =
 fun c ->
  emit c (Gate.Rot { name = "Rz"; angle = theta; inv = false; targets = [ q ]; controls = [] })

let rot_X theta (Qubit q) : unit t =
 fun c ->
  emit c (Gate.Rot { name = "Rx"; angle = theta; inv = false; targets = [ q ]; controls = [] })

(** The QFT phase gate R_k = diag(1, e^{2*pi*i/2^k}). *)
let gate_R k (Qubit q) : unit t =
 fun c ->
  emit c
    (Gate.Rot
       { name = "R"; angle = 2.0 *. Float.pi /. Float.of_int (1 lsl k);
         inv = false; targets = [ q ]; controls = [] })

let gate_R_inv k (Qubit q) : unit t =
 fun c ->
  emit c
    (Gate.Rot
       { name = "R"; angle = 2.0 *. Float.pi /. Float.of_int (1 lsl k);
         inv = true; targets = [ q ]; controls = [] })

let global_phase angle : unit t = fun c -> emit c (Gate.Phase { angle; controls = [] })

(* ------------------------------------------------------------------ *)
(* Initialisation, termination, measurement                            *)

let qinit_bit value : qubit t =
 fun c ->
  let w = alloc_id c in
  emit c (Gate.Init { ty = Wire.Q; value; wire = w });
  Qubit w

let qterm_bit value (Qubit q) : unit t =
 fun c -> emit c (Gate.Term { ty = Wire.Q; value; wire = q })

let qdiscard (Qubit q) : unit t = fun c -> emit c (Gate.Discard { ty = Wire.Q; wire = q })

let cinit_bit value : bit t =
 fun c ->
  let w = alloc_id c in
  emit c (Gate.Init { ty = Wire.C; value; wire = w });
  Bit w

let cterm_bit value (Bit b) : unit t =
 fun c -> emit c (Gate.Term { ty = Wire.C; value; wire = b })

let cdiscard (Bit b) : unit t = fun c -> emit c (Gate.Discard { ty = Wire.C; wire = b })

let measure_qubit (Qubit q) : bit t =
 fun c ->
  emit c (Gate.Measure { wire = q });
  Bit q

(** Prepare a qubit from a classical wire: measure-free conversion is not
    physical, so this is the standard "copy through CNOT after init" —
    Quipper's [prepare]. Here we model it as a classically-controlled not on
    a fresh qubit. *)
let prepare (Bit b) : qubit t =
 fun c ->
  let w = alloc_id c in
  emit c (Gate.Init { ty = Wire.Q; value = false; wire = w });
  emit c
    (Gate.Gate
       { name = "not"; inv = false; targets = [ w ];
         controls = [ { Gate.cwire = b; cty = Wire.C; positive = true } ] });
  Qubit w

(** Classical logic gates on classical wires (§4.2.3). *)
let cgate name (ins : bit list) : bit t =
 fun c ->
  let w = alloc_id c in
  emit c (Gate.Cgate { name; out = w; ins = List.map bit_wire ins });
  Bit w

let cgate_xor ins = cgate "xor" ins
let cgate_and ins = cgate "and" ins
let cgate_or ins = cgate "or" ins
let cgate_not i = cgate "not" [ i ]

(** Dynamic lifting (§4.3.1): read a circuit-execution-time classical wire
    back as a generation-time [bool]. Only run functions that actually
    execute circuits provide it. *)
let dynamic_lift (Bit b) : bool t =
 fun c ->
  check_live c b Wire.C;
  if c.extraction_depth > 0 then Errors.raise_ Dynamic_lifting_unavailable;
  match c.lift with
  | None -> Errors.raise_ Dynamic_lifting_unavailable
  | Some f -> f c b

(* ------------------------------------------------------------------ *)
(* Control structure (§4.4.2)                                          *)

(** Control specifications for [with_controls]/[controlled]: positive or
    negative, quantum or classical. *)
let ctl (Qubit q) = { Gate.cwire = q; cty = Wire.Q; positive = true }
let ctl_neg (Qubit q) = { Gate.cwire = q; cty = Wire.Q; positive = false }
let ctl_bit (Bit b) = { Gate.cwire = b; cty = Wire.C; positive = true }
let ctl_bit_neg (Bit b) = { Gate.cwire = b; cty = Wire.C; positive = false }

let with_controls (ctls : Gate.control list) (m : 'a t) : 'a t =
 fun c ->
  let saved = c.controls in
  c.controls <- saved @ ctls;
  Fun.protect ~finally:(fun () -> c.controls <- saved) (fun () -> m c)

let with_control q m = with_controls [ ctl q ] m

(** Pipe-friendly version of [with_controls], mirroring the paper's
    [qnot x `controlled` (a,b)]: [qnot_ x |> controlled [ctl a; ctl b]]. *)
let controlled (ctls : Gate.control list) (m : 'a t) : 'a t =
  with_controls ctls m

let without_controls (m : 'a t) : 'a t =
 fun c ->
  let saved = c.controls in
  c.controls <- [];
  Fun.protect ~finally:(fun () -> c.controls <- saved) (fun () -> m c)

(** Ablation switch: when false, [with_computed] applies ambient controls to
    the compute/uncompute halves instead of trimming them (see DESIGN.md). *)
let control_trimming = ref true

(* ------------------------------------------------------------------ *)
(* Ancillas (§4.2.1)                                                   *)

let with_ancilla (f : qubit -> 'a t) : 'a t =
 fun c ->
  let q = without_controls (qinit_bit false) c in
  let r = f q c in
  without_controls (qterm_bit false q) c;
  r

let with_ancilla_init (values : bool list) (f : qubit list -> 'a t) : 'a t =
 fun c ->
  let qs = without_controls (mapm qinit_bit values) c in
  let r = f qs c in
  without_controls (iterm (fun (v, q) -> qterm_bit v q) (List.combine values qs)) c;
  r

(* ------------------------------------------------------------------ *)
(* Comments and labels                                                 *)

let comment text : unit t = fun c -> emit c (Gate.Comment { text; labels = [] })

(* [base ^ "[" ^ string_of_int i ^ "]"], built in one string *)
let indexed base i =
  let k = string_of_int i and n = String.length base in
  let b = Bytes.create (n + String.length k + 2) in
  Bytes.blit_string base 0 b 0 n;
  Bytes.set b n '[';
  Bytes.blit_string k 0 b (n + 1) (String.length k);
  Bytes.set b (Bytes.length b - 1) ']';
  Bytes.unsafe_to_string b

let label_endpoints (es : Wire.endpoint list) base =
  match es with
  | [ e ] -> [ (e.Wire.wire, base) ]
  | es -> List.mapi (fun i (e : Wire.endpoint) -> (e.Wire.wire, indexed base i)) es

let comment_with_label text (w : ('b, 'q, 'c) Qdata.t) (x : 'q) base : unit t =
 fun c ->
  emit c (Gate.Comment { text; labels = label_endpoints (Qdata.qleaves w x) base })

(** Label several pieces of data at once, as in
    [comment_with_labels "ENTER: a6" [lab qd1 x "x"; lab qd2 y "y"]]. *)
type labelled = L : ('b, 'q, 'c) Qdata.t * 'q * string -> labelled

let lab w x base = L (w, x, base)

let comment_with_labels text (ls : labelled list) : unit t =
 fun c ->
  let labels =
    List.concat_map (fun (L (w, x, base)) -> label_endpoints (Qdata.qleaves w x) base) ls
  in
  emit c (Gate.Comment { text; labels })

(* ------------------------------------------------------------------ *)
(* Generic operations over shape witnesses (QShape, §4.5)              *)

(** [qinit w b]: initialise fresh quantum data of shape [w] from the
    boolean parameter [b] — the paper's [qinit :: QShape b q c => b -> Circ q]. *)
let qinit (w : ('b, 'q, 'c) Qdata.t) (b : 'b) : 'q t =
 fun c ->
  let bits = Qdata.bleaves w b in
  let es =
    List.map2
      (fun ty v ->
        match ty with
        | Wire.Q ->
            let (Qubit q) = without_controls (qinit_bit v) c in
            Wire.qw q
        | Wire.C ->
            let (Bit b) = without_controls (cinit_bit v) c in
            Wire.cw b)
      w.Qdata.tys bits
  in
  Qdata.qbuild w es

(** [qterm w b q]: assertively terminate quantum data, claiming it equals
    the parameter [b]. *)
let qterm (w : ('b, 'q, 'c) Qdata.t) (b : 'b) (q : 'q) : unit t =
 fun c ->
  let bits = Qdata.bleaves w b in
  let es = Qdata.qleaves w q in
  List.iter2
    (fun v (e : Wire.endpoint) ->
      without_controls
        (fun c ->
          emit c (Gate.Term { ty = e.ty; value = v; wire = e.wire }))
        c)
    bits es

(** [measure w q]: measure every qubit leaf, producing the classical
    version — the paper's [measure :: QShape b q c => q -> Circ c]. *)
let measure (w : ('b, 'q, 'c) Qdata.t) (q : 'q) : 'c t =
 fun c ->
  let es =
    List.map
      (fun (e : Wire.endpoint) ->
        match e.Wire.ty with
        | Wire.Q ->
            emit c (Gate.Measure { wire = e.Wire.wire });
            Wire.cw e.Wire.wire
        | Wire.C -> e)
      (Qdata.qleaves w q)
  in
  Qdata.cbuild w es

let discard (w : ('b, 'q, 'c) Qdata.t) (q : 'q) : unit t =
 fun c ->
  List.iter
    (fun (e : Wire.endpoint) ->
      emit c (Gate.Discard { ty = e.Wire.ty; wire = e.Wire.wire }))
    (Qdata.qleaves w q)

(** [controlled_not w target source]: apply a CNOT from each leaf of
    [source] onto the corresponding leaf of [target] — the generic
    [controlled_not :: QCData q => q -> q -> Circ (q, q)] of §4.5. *)
let controlled_not (w : ('b, 'q, 'c) Qdata.t) ~(target : 'q) ~(source : 'q) : unit t =
 fun c ->
  let ts = Qdata.qleaves w target and ss = Qdata.qleaves w source in
  List.iter2
    (fun (t : Wire.endpoint) (s : Wire.endpoint) ->
      match (t.Wire.ty, s.Wire.ty) with
      | Wire.Q, _ ->
          emit c
            (Gate.Gate
               { name = "not"; inv = false; targets = [ t.Wire.wire ];
                 controls = [ { Gate.cwire = s.Wire.wire; cty = s.Wire.ty; positive = true } ] })
      | Wire.C, _ -> Errors.invalidf "controlled_not: classical target wire %d" t.Wire.wire)
    ts ss

(** Initialise quantum data equal to given classical *wires* (not
    parameters): CNOT-copy each bit/qubit leaf into a fresh qubit. *)
let qinit_of (w : ('b, 'q, 'c) Qdata.t) (src : 'q) : 'q t =
 fun c ->
  let es =
    List.map
      (fun (e : Wire.endpoint) ->
        let w' = alloc_id c in
        (without_controls (fun c -> emit c (Gate.Init { ty = Wire.Q; value = false; wire = w' }))) c;
        emit c
          (Gate.Gate
             { name = "not"; inv = false; targets = [ w' ];
               controls = [ { Gate.cwire = e.Wire.wire; cty = e.Wire.ty; positive = true } ] });
        Wire.qw w')
      (Qdata.qleaves w src)
  in
  Qdata.qbuild w es

(* ------------------------------------------------------------------ *)
(* Subcircuit capture: the engine behind box / reverse / with_computed  *)

(* The chained hash table that once held the live wires had [buckets n]
   buckets after holding at most [n] of them since it was last reset. *)
let buckets n =
  let b = ref 64 in
  while n > 2 * !b do
    b := 2 * !b
  done;
  !b

(* The wire a leaky capture names: the first undeclared one in the
   order the chained table visited this scope's wires (see {!Wire.Itbl}).
   Each nested capture's exit re-inserted the scope's wires in that
   order, so those exits are replayed on the ranks first. Cold path. *)
let leaked_wire c =
  let ws = ref [] in
  for w = c.fresh - 1 downto c.floor do
    let v = Wire.Itbl.find c.live w in
    if v >= 0 then ws := (w, v lsr 1) :: !ws
  done;
  let wires = Array.of_list (List.map fst !ws) in
  let stamps = Array.of_list (List.map snd !ws) in
  let ranks = Array.copy stamps in
  (* visiting order with [b] buckets: ascending bucket, newest first *)
  let visit b i j =
    let bucket k = Hashtbl.hash wires.(k) land (b - 1) in
    compare (bucket i, ranks.(j)) (bucket j, ranks.(i))
  in
  List.iter
    (fun (entry, n) ->
      let older =
        List.filter (fun i -> stamps.(i) < entry) (List.init (Array.length wires) Fun.id)
      in
      let k = List.length older in
      List.iteri
        (fun pos i -> ranks.(i) <- entry - k + pos)
        (List.stable_sort (visit (buckets n)) older))
    (List.rev c.restores);
  let order =
    List.stable_sort (visit (buckets (c.peak - c.base))) (List.init (Array.length wires) Fun.id)
  in
  wires.(List.find (fun i -> Wire.Marks.find c.declared wires.(i) = 0) order)

(* End a capture's scope: every wire still live in it must be declared
   among the outputs (the same error Quipper gives); then unbind them. *)
let close_scope c (outs : Wire.endpoint list) =
  Wire.Marks.clear c.declared;
  let n = ref 0 in
  List.iter
    (fun (e : Wire.endpoint) ->
      let w = e.Wire.wire in
      if Wire.Marks.find c.declared w = 0 then begin
        Wire.Marks.set c.declared w 1;
        if w >= c.floor && Wire.Itbl.mem c.live w then incr n
      end)
    outs;
  if !n <> Wire.Itbl.length c.live - c.base then
    Errors.raise_
      (Shape_mismatch
         (Fmt.str "captured function leaks wire %d (not in output shape)" (leaked_wire c)));
  List.iter
    (fun (e : Wire.endpoint) -> if e.Wire.wire >= c.floor then Wire.Itbl.remove c.live e.Wire.wire)
    outs

(** Run [f] on freshly-allocated dummy wires of the given shape, capturing
    its gates. The body runs in its own live scope (it cannot touch outer
    wires), with no ambient controls, and with execution suppressed.
    Returns the body's inputs, its gates and its output endpoints. *)
let capture (c : ctx) (in_w : ('b, 'q, 'cc) Qdata.t)
    (out_w : ('b2, 'q2, 'c2) Qdata.t) (f : 'q -> 'q2 t) :
    Wire.endpoint list * Gate.t Vec.t * Wire.endpoint list =
  let saved_buf = c.buf
  and saved_controls = c.controls
  and floor = c.floor
  and base = c.base
  and peak = c.peak
  and restores = c.restores
  and entry = c.stamp in
  c.buf <- Vec.create ();
  c.controls <- [];
  c.floor <- c.fresh;
  c.base <- Wire.Itbl.length c.live;
  c.peak <- c.base;
  c.restores <- [];
  c.extraction_depth <- c.extraction_depth + 1;
  let leave () =
    c.extraction_depth <- c.extraction_depth - 1;
    c.buf <- saved_buf;
    c.controls <- saved_controls;
    c.floor <- floor;
    c.base <- base;
    c.peak <- Wire.Itbl.length c.live;
    c.restores <-
      (if c.extraction_depth > 0 then (entry, peak - base) :: restores else [])
  in
  match
    let ins =
      List.map (fun ty -> { Wire.wire = fresh_wire c ty; ty }) in_w.Qdata.tys
    in
    let outs = Qdata.qleaves out_w (f (Qdata.qbuild in_w ins) c) in
    close_scope c outs;
    (ins, c.buf, outs)
  with
  | r ->
      leave ();
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      for w = c.floor to c.fresh - 1 do
        Wire.Itbl.remove c.live w
      done;
      leave ();
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Whole-circuit operators (§4.4.3)                                    *)

(* [reverse_fun]'s renaming of the [n] wire ids from [first] up:
   [c.remap.(w - first)] is the actual wire of body wire [w], or
   [unmapped] *)
let unmapped = min_int

let rename c first n w =
  let i = w - first in
  if i >= 0 && i < n && c.remap.(i) <> unmapped then c.remap.(i)
  else Errors.raise_ (Dead_wire w)

(* a wire born in the reversed body gets the next fresh id *)
let rename_born c first w =
  let i = w - first in
  if c.remap.(i) = unmapped then c.remap.(i) <- alloc_id c;
  c.remap.(i)

let rec rename_wires c first n = function
  | [] -> []
  | w :: ws ->
      let w = rename c first n w in
      w :: rename_wires c first n ws

let rec rename_born_wires c first = function
  | [] -> []
  | w :: ws ->
      let w = rename_born c first w in
      w :: rename_born_wires c first ws

let rec rename_controls c first n = function
  | [] -> []
  | (k : Gate.control) :: ks ->
      let k = { k with cwire = rename c first n k.cwire } in
      k :: rename_controls c first n ks

(* [Gate.inverse], renamed *)
let inverse_renamed c first n (g : Gate.t) : Gate.t =
  match g with
  | Gate.Gate r ->
      Gate.Gate
        { r with
          inv = (if Gate.self_inverse r.name then r.inv else not r.inv);
          targets = rename_wires c first n r.targets;
          controls = rename_controls c first n r.controls }
  | Gate.Rot r ->
      Gate.Rot
        { r with
          inv = not r.inv;
          targets = rename_wires c first n r.targets;
          controls = rename_controls c first n r.controls }
  | Gate.Phase { angle; controls } ->
      Gate.Phase { angle = -.angle; controls = rename_controls c first n controls }
  | Gate.Init { ty; value; wire } -> Gate.Term { ty; value; wire = rename c first n wire }
  | Gate.Term { ty; value; wire } -> Gate.Init { ty; value; wire = rename_born c first wire }
  | Gate.Subroutine s ->
      let inputs = rename_wires c first n s.outputs in
      let outputs = rename_born_wires c first s.inputs in
      Gate.Subroutine
        { s with inv = not s.inv; inputs; outputs; controls = rename_controls c first n s.controls }
  | g -> Gate.inverse g

(** Reverse of a circuit-producing function. [reverse_fun ~in_ ~out f] is a
    function of the *output* shape computing the inverse circuit of [f].
    Circuits containing initialisations and assertive terminations reverse
    without complaint (§4.2.2). The captured gates are inverted, renamed
    onto the actual wires and emitted in one backward pass. *)
let reverse_fun ~(in_ : ('b, 'q, 'c) Qdata.t) ~(out : ('b2, 'q2, 'c2) Qdata.t)
    (f : 'q -> 'q2 t) : 'q2 -> 'q t =
 fun y c ->
  let first = c.fresh in
  let ins, gates, outs = capture c in_ out f in
  (* the first gate without an inverse is refused before anything runs *)
  Vec.iter
    (function
      | (Gate.Discard _ | Gate.Measure _ | Gate.Cgate _) as g -> ignore (Gate.inverse g)
      | _ -> ())
    gates;
  let actual = Qdata.qleaves out y in
  if List.length outs <> List.length actual then
    Errors.raise_ (Shape_mismatch "replay: input arity");
  let n = c.fresh - first in
  if Array.length c.remap < n then c.remap <- Array.make (max n (2 * Array.length c.remap)) 0;
  Array.fill c.remap 0 n unmapped;
  List.iter2
    (fun (d : Wire.endpoint) (a : Wire.endpoint) ->
      if d.Wire.ty <> a.Wire.ty then
        Errors.raise_ (Shape_mismatch "replay: input wire type");
      let i = d.Wire.wire - first in
      if i >= 0 && i < n then c.remap.(i) <- a.Wire.wire)
    outs actual;
  for i = Vec.length gates - 1 downto 0 do
    match Vec.get gates i with
    | Gate.Comment _ -> ()
    | g -> emit c (inverse_renamed c first n g)
  done;
  Qdata.qbuild in_
    (List.map (fun (e : Wire.endpoint) -> { e with Wire.wire = rename c first n e.Wire.wire }) ins)

(** [reverse_simple w f]: reverse an in-place function (input and output
    shapes coincide), as used throughout the paper's examples. *)
let reverse_simple (w : ('b, 'q, 'c) Qdata.t) (f : 'q -> 'q t) : 'q -> 'q t =
  reverse_fun ~in_:w ~out:w f

(** [with_computed compute use]: run [compute], use its result, then
    automatically uncompute [compute]'s gates in reverse (§5.3.1's
    [with_computed_fun]). When [control_trimming] is on (the default, as in
    Quipper), ambient controls are applied only to the [use] block: if the
    compute block is correctly uncomputed, controlling the body alone is
    equivalent to controlling the whole sandwich, and vastly cheaper. *)
let with_computed (compute : 'a t) (use : 'a -> 'b t) : 'b t =
 fun c ->
  let trimming = !control_trimming in
  let saved_controls = c.controls in
  begin_retain c;
  Fun.protect
    ~finally:(fun () -> end_retain c)
    (fun () ->
      if trimming then c.controls <- [];
      let start = Vec.length c.buf in
      let a = compute c in
      let mid = Vec.length c.buf in
      c.controls <- saved_controls;
      let b = use a c in
      (* uncompute: emit the inverses of the compute gates in reverse order.
         Ambient controls are always cleared here: when trimming is off the
         recorded gates already carry them. *)
      c.controls <- [];
      (try
         for i = mid - 1 downto start do
           let g = Vec.get c.buf i in
           if not (Gate.is_comment g) then emit c (Gate.inverse g)
         done
       with e ->
         c.controls <- saved_controls;
         raise e);
      c.controls <- saved_controls;
      b)

(** Paper-style [with_computed_fun x compute use]: compute from [x], use,
    uncompute back to [x]. [use] must return the intermediate value
    unchanged. *)
let with_computed_fun (x : 'x) (compute : 'x -> 'a t) (use : 'a -> ('a * 'r) t) :
    ('x * 'r) t =
  with_computed (fun c -> compute x c) (fun a c -> (x, snd (use a c)))

(* ------------------------------------------------------------------ *)
(* Boxed subcircuits (§4.4.4)                                          *)

let subroutine_controllable (circ : Circuit.t) =
  Array.for_all
    (fun g ->
      match Gate.controllability g with
      | Gate.Controllable | Gate.Control_neutral -> true
      | Gate.Not_controllable _ -> false)
    circ.Circuit.gates

(** [box name ~in_ ~out f x]: apply [f] to [x] through a named boxed
    subcircuit. On first use the body is generated once (on dummy wires)
    and recorded in the namespace; every use emits a single [Subroutine]
    gate. Boxes nest, giving a hierarchy of circuits; resource counting and
    the other whole-circuit operators exploit the sharing. *)
let box name ~(in_ : ('b, 'q, 'c) Qdata.t) ~(out : ('b2, 'q2, 'c2) Qdata.t)
    (f : 'q -> 'q2 t) : 'q -> 'q2 t =
 fun x c ->
  if not c.boxing then f x c
  else begin
    let sub =
      match Hashtbl.find_opt c.subs name with
      | Some existing ->
          let rec same_tys (es : Wire.endpoint list) tys =
            match (es, tys) with
            | [], [] -> true
            | e :: es, ty :: tys -> e.Wire.ty = ty && same_tys es tys
            | _ -> false
          in
          if not (same_tys existing.circ.Circuit.inputs in_.Qdata.tys) then
            Errors.raise_ (Subroutine_redefined name);
          existing
      | None ->
          (match c.on_sub_enter with Some f -> f name | None -> ());
          let inputs, gates, outputs = capture c in_ out f in
          let circ = { Circuit.inputs; gates = Vec.to_array gates; outputs } in
          let controllable = subroutine_controllable circ in
          let sub = { Circuit.circ; controllable } in
          Hashtbl.replace c.subs name sub;
          c.sub_order <- name :: c.sub_order;
          (match c.on_sub_exit with Some f -> f name sub | None -> ());
          sub
    in
    let d_in = sub.circ.Circuit.inputs and d_out = sub.circ.Circuit.outputs in
    let actual_ins = Qdata.qleaves in_ x in
    (if List.length actual_ins <> List.length d_in then
       Errors.raise_ (Shape_mismatch (Fmt.str "box %s: input arity" name)));
    let inputs = List.map (fun (e : Wire.endpoint) -> e.Wire.wire) actual_ins in
    let rec in_place (ds : Wire.endpoint list) (es : Wire.endpoint list) =
      match (ds, es) with
      | [], [] -> true
      | d :: ds, e :: es -> d.wire = e.wire && d.ty = e.ty && in_place ds es
      | _ -> false
    in
    (* a body that hands back every input, in order and nothing else,
       has the call's inputs as its outputs *)
    let actual_outs, outputs =
      if in_place d_in d_out then (actual_ins, inputs)
      else begin
        (* [capture] allocated the body's inputs as consecutive ids, so
           [remap], indexed from the first one, maps them to the actual
           wires *)
        let n = List.length d_in in
        if Array.length c.remap < n then c.remap <- Array.make (max n (2 * Array.length c.remap)) 0;
        List.iteri (fun i (a : Wire.endpoint) -> c.remap.(i) <- a.Wire.wire) actual_ins;
        let first = match d_in with d :: _ -> d.Wire.wire | [] -> 0 in
        let actual_outs =
          List.map
            (fun (e : Wire.endpoint) ->
              let i = e.Wire.wire - first in
              { e with Wire.wire = (if i >= 0 && i < n then c.remap.(i) else alloc_id c) })
            d_out
        in
        (actual_outs, List.map (fun (e : Wire.endpoint) -> e.Wire.wire) actual_outs)
      end
    in
    emit c (Gate.Subroutine { name; inv = false; inputs; outputs; controls = [] });
    Qdata.qbuild out actual_outs
  end

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let namespace_of_ctx c =
  let subs =
    Hashtbl.fold (fun k v acc -> Circuit.Namespace.add k v acc) c.subs
      Circuit.Namespace.empty
  in
  (subs, List.rev c.sub_order)

(** Generate the circuit of [f] applied to fresh inputs of shape [in_].
    Returns the boxed circuit and the (wire-level) result. *)
let generate ?(boxing = true) ~(in_ : ('b, 'q, 'c) Qdata.t) (f : 'q -> 'r t) :
    Circuit.b * 'r =
  let c = create_ctx ~boxing () in
  let ins =
    List.map (fun ty -> { Wire.wire = alloc_input c ty; ty }) in_.Qdata.tys
  in
  let x = Qdata.qbuild in_ ins in
  let r = f x c in
  let subs, sub_order = namespace_of_ctx c in
  let main =
    { Circuit.inputs = Vec.to_array c.inputs |> Array.to_list;
      gates = Vec.to_array c.buf;
      outputs = live_outputs c }
  in
  ({ Circuit.main; subs; sub_order }, r)

(** Generate a closed computation (no declared inputs). *)
let generate_unit ?(boxing = true) (m : 'r t) : Circuit.b * 'r =
  generate ~boxing ~in_:Qdata.unit (fun () -> m)

(** Run [f] feeding every top-level gate to [sink] as it is emitted,
    without materializing the circuit: per-gate O(1) memory, except that
    [with_computed] sandwiches stay buffered while open (their gates are
    re-read to emit the uncompute half) and box bodies are captured as
    usual (they are the namespace, not the stream). The sink sees exactly
    the gate sequence {!generate} would record in the main circuit, with
    subroutine definitions delivered before their first call gate. *)
let run_streaming ?(boxing = true) ?lift ~(in_ : ('b, 'q, 'c) Qdata.t)
    (f : 'q -> 'r t) (sink : 'sr Sink.t) : 'sr * 'r =
  let c =
    create_ctx ~boxing ~materialize:false ~on_emit:sink.Sink.on_gate
      ~on_sub_enter:sink.Sink.on_subroutine_enter
      ~on_sub_exit:sink.Sink.on_subroutine_exit ?lift ()
  in
  let ins =
    List.map (fun ty -> { Wire.wire = alloc_input c ty; ty }) in_.Qdata.tys
  in
  sink.Sink.on_inputs ins;
  let x = Qdata.qbuild in_ ins in
  let r = f x c in
  (sink.Sink.finish (live_outputs c), r)

let run_streaming_unit ?(boxing = true) (m : 'r t) (sink : 'sr Sink.t) :
    'sr * 'r =
  run_streaming ~boxing ~in_:Qdata.unit (fun () -> m) sink
