(** Stabilizer (Clifford) simulation, after Aaronson–Gottesman's CHP.

    The paper's [run_clifford_generic] (§4.4.5): circuits built from
    Clifford gates (H, S, CNOT, the Paulis, swap, and V = HSH up to phase)
    can be simulated in polynomial time by tracking the stabilizer group of
    the state instead of its amplitudes. Quipper offers this as one of the
    specialised run functions, "especially useful in testing oracles" on
    superposition inputs that the classical simulator cannot handle.

    We keep the standard tableau: for [n] qubits, [2n] rows of X/Z bit
    pairs plus a sign bit; rows [0..n-1] are destabilizers, [n..2n-1]
    stabilizers. Qubits are allocated dynamically: [Init] appends a column
    in state |value>, assertive [Term] verifies that measuring the qubit
    would deterministically give the asserted value (raising
    [Termination_assertion] otherwise) and retires the column. *)

open Quipper

type state = {
  mutable cap : int; (* allocated columns *)
  mutable x : Bytes.t array; (* row-major bit matrices, one byte per bit *)
  mutable z : Bytes.t array;
  mutable r : Bytes.t; (* sign bit per row, length 2*cap *)
  mutable n : int; (* live columns (monotone; retired columns stay) *)
  mutable col : (Wire.t * int) list; (* wire -> column *)
  cenv : Drive.Cenv.t;
  rng : Quipper_math.Rng.t;
  mutable rng_touched : bool;
      (* has a random-outcome measurement consumed from [rng]? While
         false, a frozen copy can replay terminal measurements
         bit-identically under any seed — the snapshot law. *)
}

let getb b i = Bytes.get b i <> '\000'
let setb b i v = Bytes.set b i (if v then '\001' else '\000')

let create ?(seed = 1) () =
  {
    cap = 0;
    x = [||];
    z = [||];
    r = Bytes.create 0;
    n = 0;
    col = [];
    cenv = Drive.Cenv.create "clifford";
    rng = Quipper_math.Rng.create seed;
    rng_touched = false;
  }

let column st w =
  match List.assoc_opt w st.col with
  | Some c -> c
  | None ->
      Errors.raise_ (Simulation (Fmt.str "clifford: wire %d is not a live qubit" w))

let read_bit st w = Drive.Cenv.read st.cenv w

(** Grow capacity to at least [cap'] columns, preserving contents. *)
let grow st cap' =
  if cap' > st.cap then begin
    let cap' = max cap' (max 8 (2 * st.cap)) in
    let rows = 2 * cap' in
    let x = Array.init rows (fun _ -> Bytes.make cap' '\000') in
    let z = Array.init rows (fun _ -> Bytes.make cap' '\000') in
    let r = Bytes.make rows '\000' in
    (* old rows: destabilizers 0..n-1 move to 0.., stabilizers n..2n-1 move
       to cap'.. *)
    for i = 0 to st.n - 1 do
      Bytes.blit st.x.(i) 0 x.(i) 0 st.n;
      Bytes.blit st.z.(i) 0 z.(i) 0 st.n;
      setb r i (getb st.r i);
      Bytes.blit st.x.(st.cap + i) 0 x.(cap' + i) 0 st.n;
      Bytes.blit st.z.(st.cap + i) 0 z.(cap' + i) 0 st.n;
      setb r (cap' + i) (getb st.r (st.cap + i))
    done;
    st.x <- x;
    st.z <- z;
    st.r <- r;
    st.cap <- cap'
  end

(* With the layout above, destabilizer row i lives at index i and
   stabilizer row i at index cap + i. *)
let drow _st i = i
let srow st i = st.cap + i

let add_qubit st (w : Wire.t) (value : bool) =
  grow st (st.n + 1);
  let q = st.n in
  st.n <- st.n + 1;
  (* re-home rows: with capacity-based layout, rows need no move; the new
     qubit's destabilizer is X_q, stabilizer is (-1)^value Z_q *)
  setb st.x.(drow st q) q true;
  setb st.z.(srow st q) q true;
  setb st.r (srow st q) value;
  st.col <- (w, q) :: st.col

(* ------------------------------------------------------------------ *)
(* The CHP update rules                                                *)

let hadamard st q =
  for i = 0 to (2 * st.cap) - 1 do
    let xi = getb st.x.(i) q and zi = getb st.z.(i) q in
    if xi && zi then setb st.r i (not (getb st.r i));
    setb st.x.(i) q zi;
    setb st.z.(i) q xi
  done

let phase_s st q =
  for i = 0 to (2 * st.cap) - 1 do
    let xi = getb st.x.(i) q and zi = getb st.z.(i) q in
    if xi && zi then setb st.r i (not (getb st.r i));
    setb st.z.(i) q (xi <> zi)
  done

let cnot st a b =
  for i = 0 to (2 * st.cap) - 1 do
    let xa = getb st.x.(i) a and za = getb st.z.(i) a in
    let xb = getb st.x.(i) b and zb = getb st.z.(i) b in
    if xa && zb && xb = za then setb st.r i (not (getb st.r i));
    setb st.x.(i) b (xb <> xa);
    setb st.z.(i) a (za <> zb)
  done

let gate_x st q =
  (* X = H Z H = H S S H *)
  hadamard st q; phase_s st q; phase_s st q; hadamard st q

let gate_z st q = phase_s st q; phase_s st q
let gate_y st q = gate_z st q; gate_x st q (* up to global phase *)
let gate_s_inv st q = phase_s st q; phase_s st q; phase_s st q
let gate_v st q = hadamard st q; phase_s st q; hadamard st q (* up to phase *)
let gate_v_inv st q = hadamard st q; gate_s_inv st q; hadamard st q
let swap st a b = cnot st a b; cnot st b a; cnot st a b

(* The exponent of i contributed to a Pauli product by one qubit: the
   factor (x1, z1) times (x2, z2). *)
let pauli_phase x1 z1 x2 z2 =
  match (x1, z1) with
  | false, false -> 0
  | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
  | true, false -> if z2 && x2 then 1 else if z2 then -1 else 0
  | false, true -> if x2 && z2 then -1 else if x2 then 1 else 0

(* rowsum (Aaronson-Gottesman): row h += row i, tracking the sign.
   [tracked = false] is for destabilizer targets: a destabilizer times
   its partner stabilizer anticommutes, so the product legitimately
   picks up an [i] factor — but destabilizer signs are never read (CHP
   stores an arbitrary bit there), so the sign is recorded as whatever
   the mod-4 exponent rounds to instead of raising. *)
let rowsum ?(tracked = true) st h i =
  let acc = ref ((if getb st.r h then 2 else 0) + if getb st.r i then 2 else 0) in
  for j = 0 to st.n - 1 do
    acc :=
      !acc + pauli_phase (getb st.x.(i) j) (getb st.z.(i) j) (getb st.x.(h) j) (getb st.z.(h) j);
    setb st.x.(h) j (getb st.x.(h) j <> getb st.x.(i) j);
    setb st.z.(h) j (getb st.z.(h) j <> getb st.z.(i) j)
  done;
  let m = ((!acc mod 4) + 4) mod 4 in
  if m = 0 then setb st.r h false
  else if m = 2 then setb st.r h true
  else if not tracked then setb st.r h false
  else Errors.raise_ (Simulation "clifford: rowsum produced imaginary sign")

(* The first stabilizer row with its x bit set at column [q], or -1: a
   measurement of [q] is random iff there is one. *)
let random_pivot st q =
  let rec go i = if i >= st.n then -1 else if getb st.x.(srow st i) q then i else go (i + 1) in
  go 0

(* The outcome of measuring column [q] when it is deterministic: the
   sign of the product of the stabilizers whose destabilizer partners
   have their x bit at [q], accumulated in a scratch row. *)
let determined_outcome st q =
  let scratch_x = Bytes.make st.cap '\000' in
  let scratch_z = Bytes.make st.cap '\000' in
  let scratch_r = ref false in
  let addrow i =
    let acc = ref ((if !scratch_r then 2 else 0) + if getb st.r i then 2 else 0) in
    for j = 0 to st.n - 1 do
      acc :=
        !acc
        + pauli_phase (getb st.x.(i) j) (getb st.z.(i) j) (getb scratch_x j) (getb scratch_z j);
      setb scratch_x j (getb scratch_x j <> getb st.x.(i) j);
      setb scratch_z j (getb scratch_z j <> getb st.z.(i) j)
    done;
    let m = ((!acc mod 4) + 4) mod 4 in
    scratch_r := m = 2
  in
  for i = 0 to st.n - 1 do
    if getb st.x.(drow st i) q then addrow (srow st i)
  done;
  !scratch_r

(** Measure column [q]. Returns (outcome, was_deterministic). *)
let measure_col st q : bool * bool =
  let p = random_pivot st q in
  if p < 0 then (determined_outcome st q, true)
  else begin
    let sp = srow st p in
    (* every other row with x bit at q gets row p multiplied in *)
    for i = 0 to st.n - 1 do
      let d = drow st i and s = srow st i in
      if d <> sp && getb st.x.(d) q then rowsum ~tracked:false st d sp;
      if s <> sp && getb st.x.(s) q then rowsum st s sp
    done;
    (* destabilizer p := old stabilizer p *)
    let dp = drow st p in
    Bytes.blit st.x.(sp) 0 st.x.(dp) 0 st.n;
    Bytes.blit st.z.(sp) 0 st.z.(dp) 0 st.n;
    setb st.r dp (getb st.r sp);
    (* stabilizer p := +/- Z_q with random sign *)
    Bytes.fill st.x.(sp) 0 st.cap '\000';
    Bytes.fill st.z.(sp) 0 st.cap '\000';
    setb st.z.(sp) q true;
    st.rng_touched <- true;
    let outcome = Quipper_math.Rng.bool st.rng in
    setb st.r sp outcome;
    (outcome, false)
  end

(** Whether measuring column [q] would be deterministic, and if so what
    the outcome is — {e without} mutating the tableau or consuming
    randomness, so the frame engine can probe eligibility. *)
let deterministic_outcome_col st q : bool option =
  if random_pivot st q >= 0 then None else Some (determined_outcome st q)

let deterministic_outcome st w = deterministic_outcome_col st (column st w)
let column_of = column

(** Does the Pauli described by [frames] — [(column, x, z)] components,
    sign irrelevant — commute with every stabilizer generator of [st]?
    For a full-rank tableau this decides whether conjugating the state by
    that Pauli leaves the stabilizer group (and hence the state, up to
    global phase) unchanged: the fault is {e masked}. *)
let frame_commutes st (frames : (int * bool * bool) list) : bool =
  let commutes_with_row row =
    List.fold_left
      (fun acc (q, fx, fz) ->
        let acc = if fx && getb st.z.(row) q then not acc else acc in
        if fz && getb st.x.(row) q then not acc else acc)
      false frames
    = false
  in
  let ok = ref true in
  for i = 0 to st.n - 1 do
    if not (commutes_with_row (srow st i)) then ok := false
  done;
  !ok

let retire st w =
  st.col <- List.filter (fun (w', _) -> w' <> w) st.col

let set_bit st w v = Drive.Cenv.write st.cenv w v

(** Measure wire [w]: sample (or read off the deterministic outcome),
    retire the column, move the wire to the classical environment. *)
let measure st (w : Wire.t) : bool =
  let q = column st w in
  let outcome, _ = measure_col st q in
  retire st w;
  set_bit st w outcome;
  outcome

(** Canonical form of the stabilizer group, over all allocated columns
    (live and retired): Gauss–Jordan reduction of the stabilizer rows to
    the unique reduced row-echelon basis — X pivots first, then Z pivots —
    with signs tracked by the same Pauli-product bookkeeping as [rowsum].
    Two states of identically-allocated runs describe the same stabilizer
    group iff their canonical strings are equal; this is what lets the
    fault-injection engine compare Clifford states without amplitudes. *)
let canonical st : string =
  let n = st.n in
  let xs = Array.init n (fun i -> Array.init n (fun j -> getb st.x.(srow st i) j)) in
  let zs = Array.init n (fun i -> Array.init n (fun j -> getb st.z.(srow st i) j)) in
  let rs = Array.init n (fun i -> getb st.r (srow st i)) in
  (* dst := dst * src, in the copied row set *)
  let rowmul dst src =
    let acc = ref ((if rs.(dst) then 2 else 0) + if rs.(src) then 2 else 0) in
    for j = 0 to n - 1 do
      acc := !acc + pauli_phase xs.(src).(j) zs.(src).(j) xs.(dst).(j) zs.(dst).(j);
      xs.(dst).(j) <- xs.(dst).(j) <> xs.(src).(j);
      zs.(dst).(j) <- zs.(dst).(j) <> zs.(src).(j)
    done;
    rs.(dst) <- ((!acc mod 4) + 4) mod 4 = 2
  in
  let swap_rows i k =
    if i <> k then begin
      let t = xs.(i) in xs.(i) <- xs.(k); xs.(k) <- t;
      let t = zs.(i) in zs.(i) <- zs.(k); zs.(k) <- t;
      let t = rs.(i) in rs.(i) <- rs.(k); rs.(k) <- t
    end
  in
  let rank = ref 0 in
  let reduce sel =
    for j = 0 to n - 1 do
      let pivot = ref (-1) in
      for i = !rank to n - 1 do
        if !pivot < 0 && sel i j then pivot := i
      done;
      if !pivot >= 0 then begin
        swap_rows !rank !pivot;
        for i = 0 to n - 1 do
          if i <> !rank && sel i j then rowmul i !rank
        done;
        incr rank
      end
    done
  in
  reduce (fun i j -> xs.(i).(j));
  reduce (fun i j -> zs.(i).(j));
  let buf = Buffer.create ((n + 2) * n) in
  for i = 0 to n - 1 do
    Buffer.add_char buf (if rs.(i) then '-' else '+');
    for j = 0 to n - 1 do
      Buffer.add_char buf
        (match (xs.(i).(j), zs.(i).(j)) with
        | false, false -> 'I'
        | true, false -> 'X'
        | false, true -> 'Z'
        | true, true -> 'Y')
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let resolve_classical_controls st (cs : Gate.control list) =
  (* split classical controls (evaluate) from quantum ones *)
  let sat = ref true in
  let qctl =
    List.filter
      (fun (c : Gate.control) ->
        match c.cty with
        | Wire.C ->
            if not (Drive.Cenv.sat st.cenv c) then sat := false;
            false
        | Wire.Q -> true)
      cs
  in
  (!sat, qctl)

let apply_gate st (g : Gate.t) =
  (* name the offending gate AND its wire(s): "clifford: T on wire 3 is
     not a Clifford operation" pinpoints the rejection in a big circuit *)
  let not_clifford ?(wires = []) what =
    let pp_wires ppf = function
      | [] -> ()
      | [ w ] -> Fmt.pf ppf " on wire %d" w
      | ws -> Fmt.pf ppf " on wires %s" (String.concat "," (List.map string_of_int ws))
    in
    Errors.raise_
      (Simulation
         (Fmt.str "clifford: %s%a is not a Clifford operation" what pp_wires wires))
  in
  match g with
  | Gate.Gate { name; inv; targets; controls } -> (
      let sat, qctl = resolve_classical_controls st controls in
      if sat then
        match (name, targets, qctl) with
        | "not", [ t ], [] | "X", [ t ], [] -> gate_x st (column st t)
        | "not", [ t ], [ c ] | "X", [ t ], [ c ] ->
            let cc = column st c.Gate.cwire and ct = column st t in
            if c.Gate.positive then cnot st cc ct
            else begin
              gate_x st cc; cnot st cc ct; gate_x st cc
            end
        | ("not" | "X"), ts, _ -> not_clifford ~wires:ts "multiply-controlled not"
        | "Y", [ t ], [] -> gate_y st (column st t)
        | "Z", [ t ], [] -> gate_z st (column st t)
        | "Z", [ t ], [ c ] when c.Gate.positive ->
            (* CZ = H(t); CNOT; H(t) *)
            let ct = column st t in
            hadamard st ct;
            cnot st (column st c.Gate.cwire) ct;
            hadamard st ct
        | "H", [ t ], [] -> hadamard st (column st t)
        | "S", [ t ], [] ->
            if inv then gate_s_inv st (column st t) else phase_s st (column st t)
        | "V", [ t ], [] ->
            if inv then gate_v_inv st (column st t) else gate_v st (column st t)
        | "swap", [ a; b ], [] -> swap st (column st a) (column st b)
        | (n, ts, _) -> not_clifford ~wires:ts n)
  | Gate.Rot { name; targets; _ } -> not_clifford ~wires:targets name
  | Gate.Phase _ -> () (* global phase: stabilizer state unchanged *)
  | Gate.Init { ty = Wire.Q; value; wire } -> add_qubit st wire value
  | Gate.Term { ty = Wire.Q; value; wire } ->
      let q = column st wire in
      let outcome, deterministic = measure_col st q in
      if not deterministic then
        Errors.raise_ (Termination_assertion { wire; expected = value })
      else if outcome <> value then
        Errors.raise_ (Termination_assertion { wire; expected = value })
      else retire st wire
  | Gate.Discard { ty = Wire.Q; wire } ->
      let q = column st wire in
      ignore (measure_col st q);
      retire st wire
  | Gate.Measure { wire } -> ignore (measure st wire)
  | g -> Drive.Cenv.apply st.cenv g

(* ------------------------------------------------------------------ *)

include Drive.Make (struct
  let name = "clifford"

  type nonrec state = state

  let create = create
  let apply_gate = apply_gate
  let read_bit = read_bit
  let measure = measure
end)

(* ------------------------------------------------------------------ *)
(* Snapshots: frozen pre-measurement tableaux for many-shot sampling   *)

(** A frozen deep copy of a tableau (rows, signs, wire columns,
    classical environment). No RNG: each {!sample_from} call brings its
    own. *)
type snapshot = {
  s_cap : int;
  s_x : Bytes.t array;
  s_z : Bytes.t array;
  s_r : Bytes.t;
  s_n : int;
  s_col : (Wire.t * int) list;
  s_cenv : Drive.Cenv.t;
}

let snapshot st : snapshot option =
  if st.rng_touched then None
  else
    Some
      {
        s_cap = st.cap;
        s_x = Array.map Bytes.copy st.x;
        s_z = Array.map Bytes.copy st.z;
        s_r = Bytes.copy st.r;
        s_n = st.n;
        s_col = st.col;
        s_cenv = Drive.Cenv.copy st.cenv;
      }

let sample_from (snap : snapshot) ~(rng : Quipper_math.Rng.t)
    (outputs : Wire.endpoint list) : bool list =
  (* Working tableau per shot: [measure] then performs the same rowsum
     surgery and (for random outcomes) the same [Rng.bool] draws an
     end-to-end run performs at its outputs, so outcomes are
     bit-identical to [run_circuit] + per-output [measure] at the seed
     [rng] was created from — deterministic outcomes consume no
     randomness in either path. *)
  let st =
    {
      cap = snap.s_cap;
      x = Array.map Bytes.copy snap.s_x;
      z = Array.map Bytes.copy snap.s_z;
      r = Bytes.copy snap.s_r;
      n = snap.s_n;
      col = snap.s_col;
      cenv = Drive.Cenv.copy snap.s_cenv;
      rng;
      rng_touched = false;
    }
  in
  readout st outputs
