(** The seed statevector engine, preserved verbatim as a reference
    oracle.

    This is the original reallocate-and-copy implementation that
    {!Statevector} replaced: every [Init]/[Term] allocates a fresh
    2^n amplitude array and copies, and every gate goes through the
    generic 2x2/4x4 matrix loop. It is deliberately kept around for

    - the bit-for-bit property tests: the fast engine must produce
      exactly the floats this engine produces, amplitude by amplitude,
      on random ancilla-heavy circuits;
    - bench section N2: old-vs-new timings of the same workloads.

    Do not use it for anything else — it is the slow path by
    construction. *)

open Quipper

let max_qubits = 22

type state = {
  mutable re : float array;
  mutable im : float array;
  mutable n : int; (* number of live qubits *)
  mutable pos : (Wire.t * int) list; (* wire -> bit position, assoc list *)
  cenv : (Wire.t, bool) Hashtbl.t; (* classical wires *)
  rng : Quipper_math.Rng.t;
}

let create ?(seed = 1) () =
  {
    re = [| 1.0 |];
    im = [| 0.0 |];
    n = 0;
    pos = [];
    cenv = Hashtbl.create 16;
    rng = Quipper_math.Rng.create seed;
  }

let num_qubits st = st.n

let position st w =
  match List.assoc_opt w st.pos with
  | Some p -> p
  | None -> Errors.raise_ (Simulation (Fmt.str "reference: wire %d is not a live qubit" w))

let qubit_index = position

let read_bit st w =
  match Hashtbl.find_opt st.cenv w with
  | Some v -> v
  | None -> Errors.raise_ (Simulation (Fmt.str "reference: wire %d has no classical value" w))

let amplitudes st =
  Array.init (Array.length st.re) (fun i -> Quipper_math.Cplx.make st.re.(i) st.im.(i))

(* ------------------------------------------------------------------ *)
(* State surgery: reallocate-and-copy                                  *)

let add_qubit st (w : Wire.t) (value : bool) =
  if st.n >= max_qubits then
    Errors.raise_
      (Simulation (Fmt.str "reference: more than %d live qubits" max_qubits));
  let size = Array.length st.re in
  let re = Array.make (2 * size) 0.0 and im = Array.make (2 * size) 0.0 in
  let off = if value then size else 0 in
  Array.blit st.re 0 re off size;
  Array.blit st.im 0 im off size;
  st.re <- re;
  st.im <- im;
  st.pos <- (w, st.n) :: st.pos;
  st.n <- st.n + 1

let remove_qubit st (w : Wire.t) (value : bool) =
  let p = position st w in
  let size = Array.length st.re in
  let mask = 1 lsl p in
  let bad = ref 0.0 in
  for i = 0 to size - 1 do
    let bit = i land mask <> 0 in
    if bit <> value then bad := !bad +. ((st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i)))
  done;
  if !bad > 1e-9 then
    Errors.raise_ (Termination_assertion { wire = w; expected = value });
  let re = Array.make (size / 2) 0.0 and im = Array.make (size / 2) 0.0 in
  let lowmask = mask - 1 in
  for j = 0 to (size / 2) - 1 do
    let i = j land lowmask lor ((j land lnot lowmask) lsl 1) lor (if value then mask else 0) in
    re.(j) <- st.re.(i);
    im.(j) <- st.im.(i)
  done;
  st.re <- re;
  st.im <- im;
  st.pos <-
    List.filter_map
      (fun (w', p') ->
        if w' = w then None else Some (w', if p' > p then p' - 1 else p'))
      st.pos;
  st.n <- st.n - 1

(* ------------------------------------------------------------------ *)
(* Gate application: generic matrix dispatch                           *)

let resolve_controls st (cs : Gate.control list) : (int * int) option =
  let rec go mask want = function
    | [] -> Some (mask, want)
    | (c : Gate.control) :: tl -> (
        match c.cty with
        | Wire.C ->
            if read_bit st c.cwire = c.positive then go mask want tl else None
        | Wire.Q ->
            let p = position st c.cwire in
            let bit = 1 lsl p in
            go (mask lor bit) (if c.positive then want lor bit else want) tl)
  in
  go 0 0 cs

let apply_1q st (m : Quipper_math.Mat2.t) (w : Wire.t) (cs : Gate.control list) =
  match resolve_controls st cs with
  | None -> ()
  | Some (cmask, cwant) ->
      let p = position st w in
      let bit = 1 lsl p in
      let size = Array.length st.re in
      let open Quipper_math in
      let a = Mat2.get m 0 0 and b = Mat2.get m 0 1 in
      let c = Mat2.get m 1 0 and d = Mat2.get m 1 1 in
      let a_re = Cplx.re a and a_im = Cplx.im a in
      let b_re = Cplx.re b and b_im = Cplx.im b in
      let c_re = Cplx.re c and c_im = Cplx.im c in
      let d_re = Cplx.re d and d_im = Cplx.im d in
      for i0 = 0 to size - 1 do
        if i0 land bit = 0 then begin
          let i1 = i0 lor bit in
          if i0 land cmask = cwant then begin
            let x_re = st.re.(i0) and x_im = st.im.(i0) in
            let y_re = st.re.(i1) and y_im = st.im.(i1) in
            st.re.(i0) <- (a_re *. x_re) -. (a_im *. x_im) +. (b_re *. y_re) -. (b_im *. y_im);
            st.im.(i0) <- (a_re *. x_im) +. (a_im *. x_re) +. (b_re *. y_im) +. (b_im *. y_re);
            st.re.(i1) <- (c_re *. x_re) -. (c_im *. x_im) +. (d_re *. y_re) -. (d_im *. y_im);
            st.im.(i1) <- (c_re *. x_im) +. (c_im *. x_re) +. (d_re *. y_im) +. (d_im *. y_re)
          end
        end
      done

let apply_2q st (m : Quipper_math.Mat2.t) (wa : Wire.t) (wb : Wire.t)
    (cs : Gate.control list) =
  match resolve_controls st cs with
  | None -> ()
  | Some (cmask, cwant) ->
      let pa = position st wa and pb = position st wb in
      let ba = 1 lsl pa and bb = 1 lsl pb in
      let size = Array.length st.re in
      let open Quipper_math in
      let entry r c = Mat2.get m r c in
      for i = 0 to size - 1 do
        if i land ba = 0 && i land bb = 0 && i land cmask = cwant then begin
          let idx = [| i; i lor bb; i lor ba; i lor ba lor bb |] in
          let xr = Array.map (fun j -> st.re.(j)) idx in
          let xi = Array.map (fun j -> st.im.(j)) idx in
          for r = 0 to 3 do
            let acc_re = ref 0.0 and acc_im = ref 0.0 in
            for c = 0 to 3 do
              let e = entry r c in
              let er = Cplx.re e and ei = Cplx.im e in
              acc_re := !acc_re +. (er *. xr.(c)) -. (ei *. xi.(c));
              acc_im := !acc_im +. (er *. xi.(c)) +. (ei *. xr.(c))
            done;
            st.re.(idx.(r)) <- !acc_re;
            st.im.(idx.(r)) <- !acc_im
          done
        end
      done

let apply_phase st angle (cs : Gate.control list) =
  match resolve_controls st cs with
  | None -> ()
  | Some (cmask, cwant) ->
      let pr = cos angle and pi = sin angle in
      for i = 0 to Array.length st.re - 1 do
        if i land cmask = cwant then begin
          let x_re = st.re.(i) and x_im = st.im.(i) in
          st.re.(i) <- (pr *. x_re) -. (pi *. x_im);
          st.im.(i) <- (pr *. x_im) +. (pi *. x_re)
        end
      done

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

let measure st (w : Wire.t) : bool =
  let p = position st w in
  let mask = 1 lsl p in
  let size = Array.length st.re in
  let p1 = ref 0.0 in
  for i = 0 to size - 1 do
    if i land mask <> 0 then
      p1 := !p1 +. ((st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i)))
  done;
  let outcome = Quipper_math.Rng.float st.rng < !p1 in
  let keep_prob = if outcome then !p1 else 1.0 -. !p1 in
  let scale = 1.0 /. sqrt (max keep_prob 1e-300) in
  for i = 0 to size - 1 do
    let bit = i land mask <> 0 in
    if bit <> outcome then begin
      st.re.(i) <- 0.0;
      st.im.(i) <- 0.0
    end
    else begin
      st.re.(i) <- st.re.(i) *. scale;
      st.im.(i) <- st.im.(i) *. scale
    end
  done;
  remove_qubit st w outcome;
  Hashtbl.replace st.cenv w outcome;
  outcome

let prob_one st (w : Wire.t) : float =
  let p = position st w in
  let mask = 1 lsl p in
  let acc = ref 0.0 in
  for i = 0 to Array.length st.re - 1 do
    if i land mask <> 0 then
      acc := !acc +. ((st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i)))
  done;
  !acc

(* ------------------------------------------------------------------ *)

let apply_gate st (g : Gate.t) =
  match g with
  | Gate.Gate { name = "swap"; inv = _; targets = [ a; b ]; controls } ->
      apply_2q st
        Quipper_math.Mat2.(
          of_rows
            [| [| Quipper_math.Cplx.one; Quipper_math.Cplx.zero; Quipper_math.Cplx.zero; Quipper_math.Cplx.zero |];
               [| Quipper_math.Cplx.zero; Quipper_math.Cplx.zero; Quipper_math.Cplx.one; Quipper_math.Cplx.zero |];
               [| Quipper_math.Cplx.zero; Quipper_math.Cplx.one; Quipper_math.Cplx.zero; Quipper_math.Cplx.zero |];
               [| Quipper_math.Cplx.zero; Quipper_math.Cplx.zero; Quipper_math.Cplx.zero; Quipper_math.Cplx.one |] |])
        a b controls
  | Gate.Gate { name = "W"; inv = _; targets = [ a; b ]; controls } ->
      apply_2q st Quipper_math.Mat2.w_gate a b controls
  | Gate.Gate { name; inv; targets = [ t ]; controls } -> (
      match gate_matrix name inv with
      | Some m -> apply_1q st m t controls
      | None ->
          Errors.raise_ (Simulation (Fmt.str "reference: unknown gate %s" name)))
  | Gate.Gate { name; _ } ->
      Errors.raise_ (Simulation (Fmt.str "reference: unsupported gate %s" name))
  | Gate.Rot { name; angle; inv; targets = [ t ]; controls } -> (
      match rot_matrix name angle inv with
      | Some m -> apply_1q st m t controls
      | None ->
          Errors.raise_ (Simulation (Fmt.str "reference: unknown rotation %s" name)))
  | Gate.Rot { name; _ } ->
      Errors.raise_ (Simulation (Fmt.str "reference: unsupported rotation %s" name))
  | Gate.Phase { angle; controls } -> apply_phase st angle controls
  | Gate.Init { ty = Wire.Q; value; wire } -> add_qubit st wire value
  | Gate.Init { ty = Wire.C; value; wire } -> Hashtbl.replace st.cenv wire value
  | Gate.Term { ty = Wire.Q; value; wire } -> remove_qubit st wire value
  | Gate.Term { ty = Wire.C; value; wire } ->
      let v = read_bit st wire in
      if v <> value then Errors.raise_ (Termination_assertion { wire; expected = value });
      Hashtbl.remove st.cenv wire
  | Gate.Discard { ty = Wire.Q; wire } ->
      ignore (measure st wire);
      Hashtbl.remove st.cenv wire
  | Gate.Discard { ty = Wire.C; wire } -> Hashtbl.remove st.cenv wire
  | Gate.Measure { wire } -> ignore (measure st wire)
  | Gate.Cgate { name; out; ins } ->
      let vs = List.map (read_bit st) ins in
      let v =
        match (name, vs) with
        | "not", [ a ] -> not a
        | "xor", vs -> List.fold_left ( <> ) false vs
        | "and", vs -> List.for_all Fun.id vs
        | "or", vs -> List.exists Fun.id vs
        | _ -> Errors.raise_ (Simulation (Fmt.str "unknown classical gate %s" name))
      in
      Hashtbl.replace st.cenv out v
  | Gate.Subroutine { name; _ } ->
      Errors.raise_
        (Simulation (Fmt.str "reference: subroutine call %s (inline first)" name))
  | Gate.Comment _ -> ()

(* ------------------------------------------------------------------ *)
(* Run functions                                                       *)

let run_fun ?seed ~(in_ : ('b, 'q, 'c) Qdata.t) (input : 'b)
    (f : 'q -> 'r Circ.t) : state * 'r =
  let st = create ?seed () in
  let ctx =
    Circ.create_ctx ~boxing:false ~on_emit:(apply_gate st)
      ~lift:(fun _ w -> read_bit st w)
      ()
  in
  let ins =
    List.map (fun ty -> { Wire.wire = Circ.alloc_input ctx ty; ty }) in_.Qdata.tys
  in
  List.iter2
    (fun (e : Wire.endpoint) v ->
      match e.Wire.ty with
      | Wire.Q -> add_qubit st e.Wire.wire v
      | Wire.C -> Hashtbl.replace st.cenv e.Wire.wire v)
    ins (Qdata.bleaves in_ input);
  let x = Qdata.qbuild in_ ins in
  let r = f x ctx in
  (st, r)

let run_circuit ?seed (b : Circuit.b) (inputs : bool list) : state =
  let flat = Circuit.inline b in
  let st = create ?seed () in
  (if List.length inputs <> List.length flat.Circuit.inputs then
     Errors.raise_ (Shape_mismatch "reference run: input arity"));
  List.iter2
    (fun (e : Wire.endpoint) v ->
      match e.Wire.ty with
      | Wire.Q -> add_qubit st e.Wire.wire v
      | Wire.C -> Hashtbl.replace st.cenv e.Wire.wire v)
    flat.Circuit.inputs inputs;
  Array.iter (apply_gate st) flat.Circuit.gates;
  st
