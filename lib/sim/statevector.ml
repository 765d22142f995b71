(** Dense statevector simulation.

    The paper's [run_generic] (§4.4.5): full quantum simulation, which is
    "necessarily inefficient on a classical computer" — exponential in the
    number of live qubits — but indispensable for validating circuits and
    for running the small instances of the algorithms in our examples.

    The simulator implements Quipper's *extended* circuit model (§4.2):
    qubits are created and destroyed dynamically ([Init] grows the state,
    assertive [Term] checks that the qubit really is disentangled in the
    asserted basis state — catching wrong uncomputation assertions — and
    shrinks the state), measurements collapse the state probabilistically
    (seeded, for reproducibility) and move the wire to a classical
    environment, and classically-controlled gates consult that environment.

    The state is stored as two unboxed float arrays (real and imaginary
    parts); qubit k of the internal order corresponds to bit k of the
    amplitude index. The arrays are {e capacity-managed}: only the first
    [2^n] elements are live, and the arrays grow geometrically and never
    shrink, so the [Init]/[Term] ancilla churn typical of Quipper circuits
    (§4.2.2) costs a fill or a blit instead of an allocate-and-copy per
    gate. A state that is done hands its arrays to the next state created
    on the same domain ({!release}), so a run of cold preparations grows
    its buffers once rather than once per preparation. Gates dispatch on
    {!Gate.fast_class} to the specialised in-place kernels of {!Kernel} —
    index swaps for X/CNOT/Toffoli, diagonal multiplies for the phase
    family, butterflies only for H and W — with the generic matrix path
    as fallback. All kernel results are bit-for-bit identical to the seed
    engine preserved in {!Reference}; probability reductions stay
    sequential so sampled outcomes are independent of the domain count. *)

open Quipper

let max_qubits = 25 (* 32M amplitudes * 16 bytes = 512 MB *)

type state = {
  mutable re : float array; (* capacity-managed: length >= size *)
  mutable im : float array;
  mutable n : int; (* number of live qubits *)
  mutable size : int; (* = 2^n, the live prefix of re/im *)
  mutable zeros_from : int;
      (* watermark: re.(i) = im.(i) = 0.0 exactly for every i in
         [zeros_from, capacity). Lets [add_qubit false] skip the
         upper-half fill when the region is still zero from a previous
         round, and a top-position [Term false] skip the assertion scan
         (a sum of exact zeros is exactly 0.0, the same float the full
         scan returns) — so a clean Init/Term ancilla cycle that never
         touches the ancilla costs O(1). *)
  mutable pos : (Wire.t * int) list; (* wire -> bit position, assoc list *)
  cenv : Drive.Cenv.t; (* classical wires *)
  rng : Quipper_math.Rng.t;
  mutable rng_touched : bool;
      (* has any measurement consumed from [rng]? While false, the
         stream is indistinguishable from a fresh [Rng.create seed], so
         a frozen copy of the state can replay terminal measurements
         bit-identically under any seed — the snapshot law. *)
}

let initial_capacity = 16

(* One spare amplitude-buffer pair per domain: [release] leaves a
   state's arrays here and the next [create_as] on the same domain takes
   them, so cold preparations do not each grow a fresh pair from
   [initial_capacity]. [sp_zeros] is the released state's watermark
   ([sp_re.(i) = sp_im.(i) = 0.0] for every [i >= sp_zeros]), so the
   taker fills only the stale part it grows into. The slot keeps the
   larger pair, which bounds what a domain retains by the largest state
   it has run; [[||]] means empty. *)
type spare = {
  mutable sp_re : float array;
  mutable sp_im : float array;
  mutable sp_zeros : int;
}

let spare = Domain.DLS.new_key (fun () -> { sp_re = [||]; sp_im = [||]; sp_zeros = 0 })

let make name seed re im zeros_from =
  re.(0) <- 1.0;
  im.(0) <- 0.0;
  {
    re;
    im;
    n = 0;
    size = 1;
    zeros_from;
    pos = [];
    cenv = Drive.Cenv.create name;
    rng = Quipper_math.Rng.create seed;
    rng_touched = false;
  }

let create_as name ?(seed = 1) () =
  let sp = Domain.DLS.get spare in
  let re = sp.sp_re and im = sp.sp_im in
  if Array.length re = 0 then
    make name seed (Array.make initial_capacity 0.0) (Array.make initial_capacity 0.0) 1
  else begin
    sp.sp_re <- [||];
    sp.sp_im <- [||];
    make name seed re im sp.sp_zeros
  end

(* A released state has [size = 0]: every entry point checks this
   before it reaches the (now empty) buffers. *)
let check_live st =
  if st.size = 0 then Errors.raise_ (Simulation "statevector: state used after release")

let release st =
  if st.size > 0 then begin
    let sp = Domain.DLS.get spare in
    if Array.length st.re > Array.length sp.sp_re then begin
      sp.sp_re <- st.re;
      sp.sp_im <- st.im;
      sp.sp_zeros <- st.zeros_from
    end;
    st.re <- [||];
    st.im <- [||];
    st.n <- 0;
    st.size <- 0;
    st.zeros_from <- 0;
    st.pos <- []
  end

let create = create_as "statevector"
let num_qubits st = st.n
let capacity st = Array.length st.re

let position st w =
  check_live st;
  match List.assoc_opt w st.pos with
  | Some p -> p
  | None -> Errors.raise_ (Simulation (Fmt.str "statevector: wire %d is not a live qubit" w))

let qubit_index = position

let read_bit st w =
  check_live st;
  Drive.Cenv.read st.cenv w

let set_bit st w v =
  check_live st;
  Drive.Cenv.write st.cenv w v

(* Gates are about to write somewhere in [0, size): the zero watermark
   can no longer vouch for anything below [size]. *)
let dirty st = if st.zeros_from < st.size then st.zeros_from <- st.size

let amplitudes st =
  check_live st;
  Array.init st.size (fun i -> Quipper_math.Cplx.make st.re.(i) st.im.(i))

let probabilities st =
  check_live st;
  Array.init st.size (fun i -> (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i)))

(* ------------------------------------------------------------------ *)
(* State surgery: in place, amortised by capacity                      *)

let ensure_capacity st want =
  if Array.length st.re < want then begin
    (* [want] is a power of two >= 2*size, so this is geometric growth;
       capacity never shrinks, which is what makes ancilla churn cheap *)
    let re = Array.make want 0.0 and im = Array.make want 0.0 in
    Array.blit st.re 0 re 0 st.size;
    Array.blit st.im 0 im 0 st.size;
    st.re <- re;
    st.im <- im;
    (* the fresh arrays are zero beyond the blit, and any zero suffix of
       the live prefix was copied verbatim *)
    if st.zeros_from > st.size then st.zeros_from <- st.size
  end

let add_qubit st (w : Wire.t) (value : bool) =
  if st.n >= max_qubits then
    Errors.raise_
      (Simulation (Fmt.str "statevector: more than %d live qubits" max_qubits));
  let size = st.size in
  ensure_capacity st (2 * size);
  (* new qubit occupies the highest bit position st.n *)
  if value then begin
    (* amplitude j moves to j + size; Array.blit handles the overlap *)
    Array.blit st.re 0 st.re size size;
    Array.blit st.im 0 st.im size size;
    Array.fill st.re 0 size 0.0;
    Array.fill st.im 0 size 0.0;
    if st.zeros_from < 2 * size then st.zeros_from <- 2 * size
  end
  else begin
    (* the new upper half must be exactly 0.0; skip whatever suffix the
       watermark already vouches for (typically all of it, when the
       previous ancilla at this position terminated untouched) *)
    if st.zeros_from > size then begin
      let stop = if st.zeros_from < 2 * size then st.zeros_from else 2 * size in
      Array.fill st.re size (stop - size) 0.0;
      Array.fill st.im size (stop - size) 0.0
    end;
    if st.zeros_from <= 2 * size && st.zeros_from > size then
      st.zeros_from <- size
  end;
  st.pos <- (w, st.n) :: st.pos;
  st.n <- st.n + 1;
  st.size <- 2 * size

(** Remove qubit [w], which must be in the computational basis state
    [value] (up to [eps] in probability). Used by [Term] and after
    measurement collapse. Compacts the kept half forward in place: the
    read index never precedes the write index, so a single ascending
    pass is safe. Stale data beyond the new [size] is dead; the next
    [add_qubit] overwrites it. *)
let remove_qubit ?(on_assert_fail : (unit -> unit) option) st (w : Wire.t) (value : bool) =
  let p = position st w in
  let size = st.size in
  let mask = 1 lsl p in
  (* probability that qubit p is NOT in [value]. This sum only faces
     the 1e-9 assertion threshold — it never reaches amplitudes or
     sampling — so the lane-parallel reduction is safe here. When the
     qubit holds the top position, [value = false] and the watermark
     covers the whole upper half, the bad amplitudes are all exactly
     0.0 and the scan is skipped (a sum of exact zeros is 0.0). *)
  let bad =
    if (not value) && 2 * mask = size && st.zeros_from <= size / 2 then 0.0
    else
      Kernel.sum_norm2_half_unord ~re:st.re ~im:st.im ~size ~bit:mask
        ~want:(not value)
  in
  if bad > 1e-9 then begin
    (match on_assert_fail with Some f -> f () | None -> ());
    Errors.raise_ (Termination_assertion { wire = w; expected = value })
  end;
  let re = st.re and im = st.im in
  let half = size / 2 in
  let lowmask = mask - 1 in
  let voff = if value then mask else 0 in
  (* compaction writes into [0, half) unless it is the no-move case
     (top position, value = false, src = dst throughout) *)
  if (voff <> 0 || mask <> half) && st.zeros_from < half then
    st.zeros_from <- half;
  if mask >= 32 then begin
    (* run-wise compaction: every run of [mask] kept amplitudes is
       contiguous, and reads never precede writes, so ascending memmoves
       are safe. Terminating the top-position qubit (the with_ancilla
       LIFO case) at [value = false] moves nothing at all. *)
    let j = ref 0 in
    while !j < half do
      let src = ((!j land lnot lowmask) lsl 1) lor (!j land lowmask) lor voff in
      let len = let r = half - !j in if mask < r then mask else r in
      if src <> !j then begin
        Array.blit re src re !j len;
        Array.blit im src im !j len
      end;
      j := !j + len
    done
  end
  else
    for j = 0 to half - 1 do
      let i = ((j land lnot lowmask) lsl 1) lor (j land lowmask) lor voff in
      Array.unsafe_set re j (Array.unsafe_get re i *. 1.0);
      Array.unsafe_set im j (Array.unsafe_get im i *. 1.0)
    done;
  st.pos <-
    List.filter_map
      (fun (w', p') ->
        if w' = w then None else Some (w', if p' > p then p' - 1 else p'))
      st.pos;
  st.n <- st.n - 1;
  st.size <- size / 2

(* ------------------------------------------------------------------ *)
(* Gate application                                                    *)

(** Quantum-control mask/value for an index: returns (mask, want) over
    index bits; classical controls are evaluated immediately. [None] means
    a classical control is unsatisfied — skip the gate. *)
let resolve_controls st (cs : Gate.control list) : (int * int) option =
  check_live st;
  let rec go mask want = function
    | [] -> Some (mask, want)
    | (c : Gate.control) :: tl -> (
        match c.cty with
        | Wire.C -> if Drive.Cenv.sat st.cenv c then go mask want tl else None
        | Wire.Q ->
            let p = position st c.cwire in
            let bit = 1 lsl p in
            go (mask lor bit) (if c.positive then want lor bit else want) tl)
  in
  go 0 0 cs

(** Resolve controls and target, then run a single-qubit kernel. *)
let with_1q st (t : Wire.t) (cs : Gate.control list)
    (k :
      re:float array ->
      im:float array ->
      size:int ->
      bit:int ->
      cmask:int ->
      cwant:int ->
      unit) =
  match resolve_controls st cs with
  | None -> ()
  | Some (cmask, cwant) ->
      let bit = 1 lsl position st t in
      dirty st;
      k ~re:st.re ~im:st.im ~size:st.size ~bit ~cmask ~cwant

(** Resolve controls and targets, then run a two-qubit kernel; [ba] is
    the first wire's bit (the high bit of the |ab> basis order). *)
let with_2q st (wa : Wire.t) (wb : Wire.t) (cs : Gate.control list)
    (k :
      re:float array ->
      im:float array ->
      size:int ->
      ba:int ->
      bb:int ->
      cmask:int ->
      cwant:int ->
      unit) =
  match resolve_controls st cs with
  | None -> ()
  | Some (cmask, cwant) ->
      let ba = 1 lsl position st wa and bb = 1 lsl position st wb in
      dirty st;
      k ~re:st.re ~im:st.im ~size:st.size ~ba ~bb ~cmask ~cwant

let apply_1q st (m : Quipper_math.Mat2.t) (w : Wire.t) (cs : Gate.control list) =
  with_1q st w cs (fun ~re ~im ~size ~bit ~cmask ~cwant ->
      Kernel.k1_generic ~re ~im ~size ~bit ~cmask ~cwant m)

(** Diagonal gate: take the two diagonal entries from the {e same} matrix
    construction the generic path would use, so specialised and generic
    results agree to the bit, and hand them to the diagonal kernel. *)
let apply_diag st (m : Quipper_math.Mat2.t) (w : Wire.t) (cs : Gate.control list) =
  let open Quipper_math in
  let d0 = Mat2.get m 0 0 and d1 = Mat2.get m 1 1 in
  with_1q st w cs (fun ~re ~im ~size ~bit ~cmask ~cwant ->
      Kernel.kdiag ~re ~im ~size ~bit ~cmask ~cwant ~d0_re:(Cplx.re d0)
        ~d0_im:(Cplx.im d0) ~d1_re:(Cplx.re d1) ~d1_im:(Cplx.im d1))

let apply_phase st angle (cs : Gate.control list) =
  match resolve_controls st cs with
  | None -> ()
  | Some (cmask, cwant) ->
      dirty st;
      Kernel.kphase ~re:st.re ~im:st.im ~size:st.size ~cmask ~cwant ~angle

let gate_matrix name inv : Quipper_math.Mat2.t option =
  let open Quipper_math.Mat2 in
  let m =
    match name with
    | "not" | "X" -> Some pauli_x
    | "Y" -> Some pauli_y
    | "Z" -> Some pauli_z
    | "H" -> Some hadamard
    | "S" -> Some phase_s
    | "T" -> Some phase_t
    | "V" -> Some sqrt_not
    | _ -> None
  in
  match m with
  | None -> None
  | Some m -> Some (if inv then adjoint m else m)

let rot_matrix name angle inv : Quipper_math.Mat2.t option =
  let open Quipper_math.Mat2 in
  let angle = if inv then -.angle else angle in
  match name with
  | "exp(-i%Z)" -> Some (exp_minus_izt angle)
  | "Rz" -> Some (rot_z angle)
  | "Rx" -> Some (rot_x angle)
  | "R" | "Ph" ->
      Some
        (of_rows
           [| [| Quipper_math.Cplx.one; Quipper_math.Cplx.zero |];
              [| Quipper_math.Cplx.zero; Quipper_math.Cplx.cis angle |] |])
  | _ -> None

(** The unitary matrix of a gate (controls excluded), inversion folded
    in: the same construction the dispatch paths use, so fused and
    unfused results differ only by float reassociation, never by matrix
    content. Two-qubit matrices (swap, W) are in the |ab> basis with the
    first target the high bit — the {!Kernel.kswap}/{!Kernel.kw}
    convention. [None] for non-unitaries, unknown names and arity
    mismatches. *)
let gate_unitary (g : Gate.t) : Quipper_math.Mat2.t option =
  let open Quipper_math in
  match g with
  | Gate.Gate { name = "swap"; targets = [ _; _ ]; _ } ->
      (* the permutation |01> <-> |10>; self-inverse *)
      let perm = [| 0; 2; 1; 3 |] in
      Some (Mat2.make 4 (fun r c -> if perm.(c) = r then Cplx.one else Cplx.zero))
  | Gate.Gate { name = "W"; inv; targets = [ _; _ ]; _ } ->
      Some (if inv then Mat2.adjoint Mat2.w_gate else Mat2.w_gate)
  | Gate.Gate { name; inv; targets = [ _ ]; _ } -> gate_matrix name inv
  | Gate.Rot { name; angle; inv; targets = [ _ ]; _ } -> rot_matrix name angle inv
  | _ -> None

(** Run an in-place kernel over the live amplitude prefix (marking the
    zero watermark dirty first) — the bridge the fused-block applier
    ({!Fuse}) uses to reach the raw buffers. *)
let apply_kernel st
    (k : re:float array -> im:float array -> size:int -> unit) =
  check_live st;
  dirty st;
  k ~re:st.re ~im:st.im ~size:st.size

(** Measure qubit [w]: Born-rule sample, collapse, move the wire to the
    classical environment. Returns the outcome. The probability sum is
    sequential (ordered float addition), so the sampled outcome is the
    same on any machine and domain count; the elementwise collapse may
    run in parallel. *)
let measure st (w : Wire.t) : bool =
  let p = position st w in
  let mask = 1 lsl p in
  let size = st.size in
  let p1 = Kernel.sum_norm2_half ~re:st.re ~im:st.im ~size ~bit:mask ~want:true in
  st.rng_touched <- true;
  let outcome = Quipper_math.Rng.float st.rng < p1 in
  (* collapse: zero the other branch and renormalise *)
  let keep_prob = if outcome then p1 else 1.0 -. p1 in
  let scale = 1.0 /. sqrt (max keep_prob 1e-300) in
  let re = st.re and im = st.im in
  dirty st;
  Kernel.par_range size (fun lo hi ->
      for i = lo to hi - 1 do
        let bit = i land mask <> 0 in
        if bit <> outcome then begin
          re.(i) <- 0.0;
          im.(i) <- 0.0
        end
        else begin
          re.(i) <- re.(i) *. scale;
          im.(i) <- im.(i) *. scale
        end
      done);
  remove_qubit st w outcome;
  set_bit st w outcome;
  outcome

(** Probability that qubit [w] would measure 1 (no collapse). *)
let prob_one st (w : Wire.t) : float =
  let p = position st w in
  let mask = 1 lsl p in
  Kernel.sum_norm2_half ~re:st.re ~im:st.im ~size:st.size ~bit:mask ~want:true

(* ------------------------------------------------------------------ *)

let apply_gate st (g : Gate.t) =
  check_live st;
  match g with
  | Gate.Gate { name = "swap"; inv = _; targets = [ a; b ]; controls } ->
      with_2q st a b controls Kernel.kswap
  | Gate.Gate { name = "W"; inv = _; targets = [ a; b ]; controls } ->
      with_2q st a b controls Kernel.kw
  | Gate.Gate { name; inv; targets = [ t ]; controls } -> (
      match Gate.fast_class g with
      | Gate.Fast_x -> with_1q st t controls Kernel.kx
      | Gate.Fast_y -> with_1q st t controls Kernel.ky
      | Gate.Fast_h -> with_1q st t controls Kernel.kh
      | Gate.Fast_z | Gate.Fast_s _ | Gate.Fast_t _ -> (
          match gate_matrix name inv with
          | Some m -> apply_diag st m t controls
          | None -> assert false (* fast_class only matches known names *))
      | _ -> (
          match gate_matrix name inv with
          | Some m -> apply_1q st m t controls
          | None ->
              Errors.raise_ (Simulation (Fmt.str "statevector: unknown gate %s" name))))
  | Gate.Gate { name; _ } ->
      Errors.raise_ (Simulation (Fmt.str "statevector: unsupported gate %s" name))
  | Gate.Rot { name; angle; inv; targets = [ t ]; controls } -> (
      match (Gate.fast_class g, rot_matrix name angle inv) with
      | Gate.Fast_diag _, Some m -> apply_diag st m t controls
      | _, Some m -> apply_1q st m t controls
      | _, None ->
          Errors.raise_ (Simulation (Fmt.str "statevector: unknown rotation %s" name)))
  | Gate.Rot { name; _ } ->
      Errors.raise_ (Simulation (Fmt.str "statevector: unsupported rotation %s" name))
  | Gate.Phase { angle; controls } -> apply_phase st angle controls
  | Gate.Init { ty = Wire.Q; value; wire } -> add_qubit st wire value
  | Gate.Term { ty = Wire.Q; value; wire } -> remove_qubit st wire value
  | Gate.Discard { ty = Wire.Q; wire } ->
      (* measure, then forget the outcome as a classical discard does *)
      ignore (measure st wire);
      Drive.Cenv.apply st.cenv g
  | Gate.Measure { wire } -> ignore (measure st wire)
  | g -> Drive.Cenv.apply st.cenv g

(* ------------------------------------------------------------------ *)
(* Run functions                                                       *)

include Drive.Make (struct
  let name = "statevector"

  type nonrec state = state

  let create = create
  let apply_gate = apply_gate
  let read_bit = read_bit
  let measure = measure
end)

(* ------------------------------------------------------------------ *)
(* Snapshots: frozen pre-measurement states for many-shot sampling     *)

(** A frozen deep copy of a state: the live amplitude prefix (trimmed to
    [size] — sampling only ever shrinks the register), the wire
    positions and the classical environment. No RNG: each
    {!sample_from} call brings its own. *)
type snapshot = {
  s_re : float array;
  s_im : float array;
  s_n : int;
  s_pos : (Wire.t * int) list;
  s_cenv : Drive.Cenv.t;
}

let snapshot st : snapshot option =
  check_live st;
  if st.rng_touched then None
  else
    Some
      {
        s_re = Array.sub st.re 0 st.size;
        s_im = Array.sub st.im 0 st.size;
        s_n = st.n;
        s_pos = st.pos;
        s_cenv = Drive.Cenv.copy st.cenv;
      }

let sample_from (snap : snapshot) ~(rng : Quipper_math.Rng.t)
    (outputs : Wire.endpoint list) : bool list =
  (* A working copy per shot: capacity is exactly the live size (terminal
     measurement only shrinks the register), and the zero watermark
     vouches for nothing — which only forgoes skip optimisations, never
     changes a float. [measure] then replays the same ordered probability
     sums, the same collapse arithmetic and the same RNG draws an
     end-to-end run performs at its outputs, so outcomes are
     bit-identical to [run_circuit] + per-output [measure] at the seed
     [rng] was created from (provided the circuit itself consumed no
     randomness — which is what [snapshot] returning [Some] certifies). *)
  let st =
    {
      re = Array.copy snap.s_re;
      im = Array.copy snap.s_im;
      n = snap.s_n;
      size = Array.length snap.s_re;
      zeros_from = Array.length snap.s_re;
      pos = snap.s_pos;
      cenv = Drive.Cenv.copy snap.s_cenv;
      rng;
      rng_touched = false;
    }
  in
  readout st outputs

(** The amplitude of basis state [bits] (little-endian over [wires], which
    must be the live qubits in the order given). *)
let amplitude st (wires : Wire.t list) (bits : bool list) : Quipper_math.Cplx.t =
  if List.length wires <> st.n then
    Errors.raise_ (Simulation "amplitude: must specify all live qubits");
  let idx =
    List.fold_left2
      (fun acc w b -> if b then acc lor (1 lsl position st w) else acc)
      0 wires bits
  in
  Quipper_math.Cplx.make st.re.(idx) st.im.(idx)

(** Output amplitudes of a circuit applied to a basis input, as a function
    from output index (little-endian over the circuit's output arity order)
    to amplitude. For unitary-equality tests on small circuits. *)
let output_vector ?seed (b : Circuit.b) (inputs : bool list) :
    Quipper_math.Cplx.t array =
  let st = run_circuit ?seed b inputs in
  let out_wires =
    List.filter_map
      (fun (e : Wire.endpoint) ->
        match e.Wire.ty with Wire.Q -> Some e.Wire.wire | Wire.C -> None)
      b.main.Circuit.outputs
  in
  let n = List.length out_wires in
  if n <> st.n then
    Errors.raise_ (Simulation "output_vector: outputs do not cover live qubits");
  Array.init (1 lsl n)
    (fun i ->
      let bits = List.mapi (fun k _ -> i land (1 lsl k) <> 0) out_wires in
      amplitude st out_wires bits)
