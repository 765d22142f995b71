(** Pauli-frame fault propagation: million-trial noise campaigns without
    re-simulation.

    The slow fault machinery ({!Noise}, {!Inject}) re-runs the whole
    circuit per noisy trial, so a resilience sweep costs
    [trials x base simulation]. This engine exploits the standard
    error-correction observation: when the circuit is Clifford and every
    collapse event is deterministic, a noisy run differs from the clean
    run only by a {e Pauli frame} — one (x, z) bitpair per live qubit
    wire recording which Pauli error is currently riding on it. The
    clean circuit runs {e once} (on the {!Clifford} reference backend);
    each trial's frame is then pushed through the same gate stream by
    conjugation ({!Quipper.Gate.frame_action}), which costs a couple of
    word operations per gate instead of a state-vector update.

    Frames for many trials pack bit-parallel: lane [l] of a machine word
    is trial [l] of a batch, so {!lanes_per_word} trials (63 on 64-bit —
    OCaml native ints keep the arrays unboxed) advance per word
    operation. Fault {e sampling} stays scalar per lane: it must replay
    the slow path's RNG draw sequence exactly ({!Noise.kick} draws
    conditionally and uses rejection sampling), which is what makes
    frame-engine outcomes bit-identical to the slow path at equal seeds
    — the property the differential tests pin.

    Degrading gracefully: conditions that hold for the whole circuit
    (a non-Clifford gate the reference would have to apply, a collapse
    that is not deterministic, a clean run that fails) mark the pass
    {e ineligible} and every lane falls back to the slow path; conditions
    that depend on the noise of one lane (a classically-controlled
    non-Pauli gate whose control diverged in that lane) fall back only
    the affected lanes. Every reason names the gate and wire that forced
    it, mirroring the clifford backend's named rejections.

    A classically-controlled {e Pauli} whose control diverges is the one
    divergence absorbed exactly: applying or skipping a Pauli just
    toggles the frame bits — which is why error-correction circuits
    (measure syndrome, classically-controlled X correction) stay on the
    fast path.

    The campaign drivers ({!Noise.run_trials_on},
    {!Noise.sample_trials_on}, {!Inject.report_on}) share one lane loop,
    {!campaign}: it picks the engine, runs a frame pass per chunk of
    lanes, re-runs fallback lanes on the slow path and retries detected
    lanes in further rounds. *)

open Quipper
module Rng = Quipper_math.Rng

type config = {
  bit_flip : float;
  phase_flip : float;
  depolarizing : float;
  readout : float;
}

(* 63 on 64-bit: every bit of a native int is a trial lane, and native
   int arrays stay unboxed (an int64 array would box every element). *)
let lanes_per_word = Sys.int_size

let full_mask width = if width >= Sys.int_size then -1 else (1 lsl width) - 1

type fault = { findex : int; fwire : Wire.t; fx : bool; fz : bool }

type semantics = Tableau | Amplitudes

(* ------------------------------------------------------------------ *)
(* Pass state                                                          *)

type batch = {
  width : int;  (** lanes in this batch, <= lanes_per_word *)
  pool : Rng.pool;  (** noise mode: per-lane noise streams, unboxed; empty in inject *)
  faults : fault array;  (** inject mode: per-lane fault, ascending findex *)
  mutable cursor : int;  (** inject mode: next fault to fire *)
  mutable live : int;  (** lanes still propagating *)
  mutable det : int;  (** lanes stopped by a termination assertion *)
  mutable fb : int;  (** lanes that must re-run on the slow path *)
  mutable qx : int array;  (** frame x bits, indexed by qubit slot *)
  mutable qz : int array;
  mutable cf : int array;  (** classical value flips, indexed by classical slot *)
  mutable retained : (int * int * int) list;
      (** (tableau column, x word, z word) of measured/discarded wires,
          kept for the inject-mode masked test under [Tableau] semantics *)
}

type mode = M_noise of config | M_inject of semantics

type pass = {
  mode : mode;
  ref_st : Clifford.state;
  qslot : (Wire.t, int) Hashtbl.t;
  cslot : (Wire.t, int) Hashtbl.t;
  mutable qfree : int list;
  mutable qnext : int;
  mutable cfree : int list;
  mutable cnext : int;
  batches : batch array;
  mutable gate_ix : int;  (** flat index of the gate being processed *)
  mutable ineligible : string option;
  mutable reasons : string list;  (** distinct fallback reasons, newest first *)
}

let note_reason (p : pass) r = if not (List.mem r p.reasons) then p.reasons <- r :: p.reasons

let mark_ineligible (p : pass) r =
  if p.ineligible = None then begin
    p.ineligible <- Some r;
    note_reason p r
  end

let fallback_lanes (p : pass) (b : batch) mask r =
  let mask = mask land b.live in
  if mask <> 0 then begin
    b.fb <- b.fb lor mask;
    b.live <- b.live land lnot mask;
    note_reason p r
  end

(* slot allocation: slots are shared across batches (every batch sees the
   same gate stream, so allocation is in lockstep); each batch only holds
   the per-lane bit words for each slot *)

let grow_arrays (b : batch) qcap ccap =
  let grow a cap =
    if Array.length a >= cap then a
    else begin
      let a' = Array.make (max cap (2 * Array.length a + 8)) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end
  in
  b.qx <- grow b.qx qcap;
  b.qz <- grow b.qz qcap;
  b.cf <- grow b.cf ccap

let alloc_q (p : pass) w =
  let s =
    match p.qfree with
    | s :: rest ->
        p.qfree <- rest;
        s
    | [] ->
        let s = p.qnext in
        p.qnext <- s + 1;
        s
  in
  Hashtbl.replace p.qslot w s;
  Array.iter
    (fun b ->
      grow_arrays b p.qnext p.cnext;
      b.qx.(s) <- 0;
      b.qz.(s) <- 0)
    p.batches;
  s

let alloc_c (p : pass) w =
  let s =
    match p.cfree with
    | s :: rest ->
        p.cfree <- rest;
        s
    | [] ->
        let s = p.cnext in
        p.cnext <- s + 1;
        s
  in
  Hashtbl.replace p.cslot w s;
  Array.iter
    (fun b ->
      grow_arrays b p.qnext p.cnext;
      b.cf.(s) <- 0)
    p.batches;
  s

let free_q (p : pass) w =
  match Hashtbl.find_opt p.qslot w with
  | Some s ->
      Hashtbl.remove p.qslot w;
      p.qfree <- s :: p.qfree
  | None -> ()

let free_c (p : pass) w =
  match Hashtbl.find_opt p.cslot w with
  | Some s ->
      Hashtbl.remove p.cslot w;
      p.cfree <- s :: p.cfree
  | None -> ()

let qslot_exn (p : pass) w = Hashtbl.find p.qslot w
let cslot_exn (p : pass) w = Hashtbl.find p.cslot w

(* ------------------------------------------------------------------ *)
(* Conjugation                                                         *)

let conjugate (p : pass) (act : Gate.frame_action) =
  match act with
  | Gate.Frame_id | Gate.Frame_pauli _ -> ()
  | Gate.Frame_h t ->
      let s = qslot_exn p t in
      Array.iter
        (fun b ->
          let x = b.qx.(s) in
          b.qx.(s) <- b.qz.(s);
          b.qz.(s) <- x)
        p.batches
  | Gate.Frame_s t ->
      let s = qslot_exn p t in
      Array.iter (fun b -> b.qz.(s) <- b.qz.(s) lxor b.qx.(s)) p.batches
  | Gate.Frame_v t ->
      let s = qslot_exn p t in
      Array.iter (fun b -> b.qx.(s) <- b.qx.(s) lxor b.qz.(s)) p.batches
  | Gate.Frame_cnot (c, t) ->
      let sc = qslot_exn p c and st = qslot_exn p t in
      Array.iter
        (fun b ->
          b.qx.(st) <- b.qx.(st) lxor b.qx.(sc);
          b.qz.(sc) <- b.qz.(sc) lxor b.qz.(st))
        p.batches
  | Gate.Frame_cz (a, bw) ->
      let sa = qslot_exn p a and sb = qslot_exn p bw in
      Array.iter
        (fun b ->
          b.qz.(sa) <- b.qz.(sa) lxor b.qx.(sb);
          b.qz.(sb) <- b.qz.(sb) lxor b.qx.(sa))
        p.batches
  | Gate.Frame_swap (a, bw) ->
      let sa = qslot_exn p a and sb = qslot_exn p bw in
      Array.iter
        (fun b ->
          let x = b.qx.(sa) in
          b.qx.(sa) <- b.qx.(sb);
          b.qx.(sb) <- x;
          let z = b.qz.(sa) in
          b.qz.(sa) <- b.qz.(sb);
          b.qz.(sb) <- z)
        p.batches

(* ------------------------------------------------------------------ *)
(* Noise sampling: batched over the lane pool ({!Rng.pool_bernoulli}),
   replaying Noise.kick's exact per-lane draw sequence — streams are
   per-lane independent, so batching across lanes cannot change any
   lane's own draws. Draws advance every lane (dead lanes' states are
   junk nobody reads: fallback lanes restart from their seed, detected
   lanes retry at the next round's seed); toggles land on live lanes
   only, as the slow path would. *)

let sample_kicks (p : pass) (g : Gate.t) =
  match p.mode with
  | M_inject _ -> ()
  | M_noise ch ->
      if ch.bit_flip > 0.0 || ch.phase_flip > 0.0 || ch.depolarizing > 0.0 then
        List.iter
          (fun w ->
            let s = qslot_exn p w in
            Array.iter
              (fun b ->
                let xw = ref 0 and zw = ref 0 in
                if ch.bit_flip > 0.0 then
                  xw := Rng.pool_bernoulli b.pool ~n:b.width ~prob:ch.bit_flip;
                if ch.phase_flip > 0.0 then
                  zw := Rng.pool_bernoulli b.pool ~n:b.width ~prob:ch.phase_flip;
                if ch.depolarizing > 0.0 then begin
                  let fired =
                    Rng.pool_bernoulli b.pool ~n:b.width ~prob:ch.depolarizing
                  in
                  let dx, dz = Rng.pool_pauli_mix b.pool ~n:b.width ~mask:fired in
                  xw := !xw lxor dx;
                  zw := !zw lxor dz
                end;
                b.qx.(s) <- b.qx.(s) lxor (!xw land b.live);
                b.qz.(s) <- b.qz.(s) lxor (!zw land b.live))
              p.batches)
          (Faultsite.exposed_wires g)

(** Readout flips for one classical slot: one conditional draw per lane,
    exactly as {!Noise.flip_readout}. *)
let sample_readout (p : pass) s =
  match p.mode with
  | M_inject _ -> ()
  | M_noise ch ->
      if ch.readout > 0.0 then
        Array.iter
          (fun b ->
            let w = Rng.pool_bernoulli b.pool ~n:b.width ~prob:ch.readout in
            b.cf.(s) <- b.cf.(s) lxor (w land b.live))
          p.batches

(* ------------------------------------------------------------------ *)
(* Per-gate step                                                       *)

let ref_apply (p : pass) g =
  match Clifford.apply_gate p.ref_st g with
  | () -> true
  | exception Errors.Error (Errors.Simulation msg) ->
      mark_ineligible p (Fmt.str "frame: clean reference run failed: %s" msg);
      false
  | exception Errors.Error (Errors.Termination_assertion { wire; _ }) ->
      mark_ineligible p
        (Fmt.str "frame: clean reference run trips the termination assertion on wire %d"
           wire);
      false

let fire_faults (p : pass) =
  let i = p.gate_ix in
  Array.iter
    (fun b ->
      while
        b.cursor < Array.length b.faults && b.faults.(b.cursor).findex = i
      do
        let f = b.faults.(b.cursor) in
        let bit = 1 lsl (b.cursor) in
        (match Hashtbl.find_opt p.qslot f.fwire with
        | Some s ->
            if f.fx then b.qx.(s) <- b.qx.(s) lxor bit;
            if f.fz then b.qz.(s) <- b.qz.(s) lxor bit
        | None ->
            fallback_lanes p b bit
              (Fmt.str "frame: fault site wire %d is not a live qubit at gate %d"
                 f.fwire i));
        b.cursor <- b.cursor + 1
      done)
    p.batches

(** Per-batch word of lanes whose classical-control satisfaction differs
    from the reference's, restricted to live lanes. *)
let classical_divergence (p : pass) (b : batch) (ccs : Gate.control list) ~ref_sat =
  if ccs = [] then 0
  else begin
    let sat = ref (-1) in
    List.iter
      (fun (c : Gate.control) ->
        let clean = Clifford.read_bit p.ref_st c.Gate.cwire in
        let value_word = b.cf.(cslot_exn p c.Gate.cwire) lxor (if clean then -1 else 0) in
        let term = if c.Gate.positive then value_word else lnot value_word in
        sat := !sat land term)
      ccs;
    (!sat lxor (if ref_sat then -1 else 0)) land b.live
  end

let on_gate (p : pass) (g : Gate.t) =
  (if p.ineligible = None then
     match g with
     | Gate.Comment _ -> ()
     | Gate.Subroutine { name; _ } ->
         mark_ineligible p (Fmt.str "frame: subroutine call %s (inline first)" name)
     | Gate.Init { ty = Wire.Q; wire; _ } ->
         if ref_apply p g then begin
           ignore (alloc_q p wire);
           sample_kicks p g
         end
     | Gate.Init { ty = Wire.C; wire; _ } ->
         if ref_apply p g then ignore (alloc_c p wire)
     | Gate.Measure { wire } -> (
         match Clifford.deterministic_outcome p.ref_st wire with
         | None ->
             mark_ineligible p
               (Fmt.str
                  "frame: measurement on wire %d is not deterministic in the reference run"
                  wire)
         | Some _ ->
             let col = Clifford.column_of p.ref_st wire in
             if ref_apply p g then begin
               let s = qslot_exn p wire in
               let cs = alloc_c p wire in
               Array.iter
                 (fun b ->
                   b.cf.(cs) <- b.qx.(s);
                   match p.mode with
                   | M_inject _ -> b.retained <- (col, b.qx.(s), b.qz.(s)) :: b.retained
                   | M_noise _ -> ())
                 p.batches;
               free_q p wire;
               sample_readout p cs
             end)
     | Gate.Term { ty = Wire.Q; value; wire } -> (
         match Clifford.deterministic_outcome p.ref_st wire with
         | None ->
             mark_ineligible p
               (Fmt.str
                  "frame: termination of wire %d is not deterministic in the reference run"
                  wire)
         | Some v when v <> value ->
             mark_ineligible p
               (Fmt.str
                  "frame: clean reference run violates the termination assertion on wire %d"
                  wire)
         | Some _ ->
             if ref_apply p g then begin
               let s = qslot_exn p wire in
               Array.iter
                 (fun b ->
                   (* an x component flips the asserted basis value: the
                      assertion fires, the slow path would raise *)
                   let caught = b.live land b.qx.(s) in
                   b.det <- b.det lor caught;
                   b.live <- b.live land lnot caught)
                 p.batches;
               free_q p wire
             end)
     | Gate.Discard { ty = Wire.Q; wire } -> (
         match Clifford.deterministic_outcome p.ref_st wire with
         | None ->
             mark_ineligible p
               (Fmt.str
                  "frame: discard of wire %d is not deterministic in the reference run"
                  wire)
         | Some _ ->
             let col = Clifford.column_of p.ref_st wire in
             if ref_apply p g then begin
               let s = qslot_exn p wire in
               Array.iter
                 (fun b ->
                   match p.mode with
                   | M_inject _ -> b.retained <- (col, b.qx.(s), b.qz.(s)) :: b.retained
                   | M_noise _ -> ())
                 p.batches;
               free_q p wire
             end)
     | Gate.Term { ty = Wire.C; value; wire } ->
         if Clifford.read_bit p.ref_st wire <> value then
           mark_ineligible p
             (Fmt.str
                "frame: clean reference run violates the classical termination on wire %d"
                wire)
         else if ref_apply p g then begin
           let s = cslot_exn p wire in
           Array.iter
             (fun b ->
               let caught = b.live land b.cf.(s) in
               b.det <- b.det lor caught;
               b.live <- b.live land lnot caught)
             p.batches;
           free_c p wire
         end
     | Gate.Discard { ty = Wire.C; wire } ->
         if ref_apply p g then free_c p wire
     | Gate.Cgate { name; out; ins } ->
         let ins_clean = List.map (Clifford.read_bit p.ref_st) ins in
         let in_slots = List.map (cslot_exn p) ins in
         if ref_apply p g then begin
           let out_clean = Clifford.read_bit p.ref_st out in
           let cs = alloc_c p out in
           Array.iter
             (fun b ->
               (* exact bit-parallel evaluation: lane value of input i is
                  clean_i xor flip_i; fold the gate's boolean function over
                  the value words, then turn the result back into flips *)
               let vals =
                 List.map2
                   (fun clean s -> b.cf.(s) lxor (if clean then -1 else 0))
                   ins_clean in_slots
               in
               let out_word =
                 match (name, vals) with
                 | "not", [ v ] -> lnot v
                 | "xor", vs -> List.fold_left ( lxor ) 0 vs
                 | "and", vs -> List.fold_left ( land ) (-1) vs
                 | "or", vs -> List.fold_left ( lor ) 0 vs
                 | _ -> 0 (* unknown names already failed ref_apply *)
               in
               b.cf.(cs) <- out_word lxor (if out_clean then -1 else 0))
             p.batches
         end
     | Gate.Gate _ | Gate.Rot _ | Gate.Phase _ -> (
         let ccs =
           List.filter (fun (c : Gate.control) -> c.Gate.cty = Wire.C) (Gate.controls g)
         in
         let ref_sat =
           List.for_all
             (fun (c : Gate.control) ->
               Clifford.read_bit p.ref_st c.Gate.cwire = c.Gate.positive)
             ccs
         in
         match Gate.frame_action g with
         | Error what ->
             if ref_sat then mark_ineligible p ("frame: " ^ what)
             else
               (* the gate never fires in the reference; only lanes whose
                  classical control diverged would need its conjugation *)
               Array.iter
                 (fun b ->
                   let diff = classical_divergence p b ccs ~ref_sat in
                   fallback_lanes p b diff
                     (Fmt.str "frame: %s behind a diverging classical control" what))
                 p.batches;
             sample_kicks p g
         | Ok act ->
             Array.iter
               (fun b ->
                 let diff = classical_divergence p b ccs ~ref_sat in
                 if diff <> 0 then
                   match act with
                   | Gate.Frame_pauli (t, fx, fz) ->
                       (* applying vs skipping a Pauli differs by that
                          Pauli: diverging lanes just toggle their frame *)
                       let s = qslot_exn p t in
                       if fx then b.qx.(s) <- b.qx.(s) lxor diff;
                       if fz then b.qz.(s) <- b.qz.(s) lxor diff
                   | Gate.Frame_id ->
                       () (* a global phase applied or not: unobservable *)
                   | _ ->
                       fallback_lanes p b diff
                         (Fmt.str
                            "frame: classically-controlled %s diverged under noise"
                            (Gate.to_string g)))
               p.batches;
             if ref_sat then if ref_apply p g then conjugate p act;
             sample_kicks p g));
  (match p.mode with M_inject _ when p.ineligible = None -> fire_faults p | _ -> ());
  p.gate_ix <- p.gate_ix + 1

let on_inputs (p : pass) (inputs : bool list) (es : Wire.endpoint list) =
  Drive.load "frame"
    (fun g ->
      if ref_apply p g then
        match g with
        | Gate.Init { ty = Wire.Q; wire; _ } -> ignore (alloc_q p wire)
        | Gate.Init { ty = Wire.C; wire; _ } -> ignore (alloc_c p wire)
        | _ -> ())
    es inputs;
  (* input fault sites: index -1, before the first gate *)
  p.gate_ix <- -1;
  (match p.mode with M_inject _ when p.ineligible = None -> fire_faults p | _ -> ());
  p.gate_ix <- 0

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

let make_batches ~lanes ~seed ~fault =
  let nbatches = (lanes + lanes_per_word - 1) / lanes_per_word in
  Array.init nbatches (fun bi ->
      let base = bi * lanes_per_word in
      let width = min lanes_per_word (lanes - base) in
      {
        width;
        pool =
          (match seed with
          | Some f ->
              let pl = Rng.pool width in
              for l = 0 to width - 1 do
                Rng.pool_seed pl l (Rng.create (Rng.derive (f (base + l)) 1))
              done;
              pl
          | None -> Rng.pool 0);
        faults =
          (match fault with
          | Some f -> Array.init width (fun l -> f (base + l))
          | None -> [||]);
        cursor = 0;
        live = full_mask width;
        det = 0;
        fb = 0;
        qx = [||];
        qz = [||];
        cf = [||];
        retained = [];
      })

(** Push [lanes] frames through the inlined circuit alongside one clean
    reference run. *)
let propagate mode ~lanes ~seed ~fault (flat : Circuit.t) (inputs : bool list) =
  let p =
    {
      mode;
      ref_st = Clifford.create ~seed:1 ();
      qslot = Hashtbl.create 64;
      cslot = Hashtbl.create 64;
      qfree = [];
      qnext = 0;
      cfree = [];
      cnext = 0;
      batches = make_batches ~lanes ~seed ~fault;
      gate_ix = 0;
      ineligible = None;
      reasons = [];
    }
  in
  on_inputs p inputs flat.Circuit.inputs;
  Array.iter (on_gate p) flat.Circuit.gates;
  p

type 'a verdict = Done of 'a | Detected | Errored of string

type 'a verdicts = {
  verdict : int -> 'a verdict option;
  ineligible : bool;
  reasons : string list;
}

(* lane [l]'s batch and its bit in that batch's words *)
let batch_of (p : pass) l = p.batches.(l / lanes_per_word)
let bit_of l = 1 lsl (l mod lanes_per_word)

let noise_pass (cfg : config) (flat : Circuit.t) (inputs : bool list) ~lanes
    ~(seed : int -> int) : bool array verdicts =
  let p = propagate (M_noise cfg) ~lanes ~seed:(Some seed) ~fault:None flat inputs in
  let outs = flat.Circuit.outputs in
  (* probe output determinism first: any random output measurement makes
     the whole pass ineligible (the slow path's sampling cannot be
     replayed from a frame) *)
  List.iter
    (fun (e : Wire.endpoint) ->
      if p.ineligible = None && e.Wire.ty = Wire.Q then
        match Clifford.deterministic_outcome p.ref_st e.Wire.wire with
        | None ->
            mark_ineligible p
              (Fmt.str
                 "frame: output measurement on wire %d is not deterministic in the reference run"
                 e.Wire.wire)
        | Some _ -> ())
    outs;
  let reasons = List.rev p.reasons in
  let detected l = (batch_of p l).det land bit_of l <> 0 in
  match p.ineligible with
  | Some _ ->
      let verdict l = if detected l then Some Detected else None in
      { verdict; ineligible = true; reasons }
  | None ->
      let outputs = List.length outs in
      let clean = Array.make outputs false in
      let flips = Array.map (fun _ -> Array.make outputs 0) p.batches in
      List.iteri
        (fun ix (e : Wire.endpoint) ->
          match e.Wire.ty with
          | Wire.Q ->
              let v =
                match Clifford.deterministic_outcome p.ref_st e.Wire.wire with
                | Some v -> v
                | None -> assert false (* probed above *)
              in
              clean.(ix) <- v;
              let s = qslot_exn p e.Wire.wire in
              Array.iteri (fun bi b -> flips.(bi).(ix) <- b.qx.(s)) p.batches;
              (* final-measurement readout error, one conditional draw per
                 live lane in output order, as Noise.measure_outputs *)
              if cfg.readout > 0.0 then
                Array.iteri
                  (fun bi b ->
                    let w = Rng.pool_bernoulli b.pool ~n:b.width ~prob:cfg.readout in
                    flips.(bi).(ix) <- flips.(bi).(ix) lxor (w land b.live))
                  p.batches
          | Wire.C ->
              clean.(ix) <- Clifford.read_bit p.ref_st e.Wire.wire;
              let s = cslot_exn p e.Wire.wire in
              Array.iteri (fun bi b -> flips.(bi).(ix) <- b.cf.(s)) p.batches)
        outs;
      let verdict l =
        let bit = bit_of l and flips = flips.(l / lanes_per_word) in
        if detected l then Some Detected
        else if (batch_of p l).fb land bit <> 0 then None
        else
          Some (Done (Array.init outputs (fun ix -> clean.(ix) <> (flips.(ix) land bit <> 0))))
      in
      { verdict; ineligible = false; reasons }

let inject_pass (semantics : semantics) (flat : Circuit.t) (inputs : bool list) ~lanes
    ~(fault : int -> fault) : bool verdicts =
  let p =
    propagate (M_inject semantics) ~lanes ~seed:None ~fault:(Some fault) flat inputs
  in
  let reasons = List.rev p.reasons in
  match p.ineligible with
  | Some _ -> { verdict = (fun _ -> None); ineligible = true; reasons }
  | None ->
      (* the masked test: a surviving lane's residual frame (over live
         columns, plus measured/discarded columns under Tableau
         semantics) leaves the final state unchanged — up to global
         phase — iff it commutes with every stabilizer generator of the
         clean reference; classical output bits must also be unflipped *)
      let live_cols =
        Hashtbl.fold
          (fun w s acc -> (Clifford.column_of p.ref_st w, s) :: acc)
          p.qslot []
      in
      let cout_slots =
        List.filter_map
          (fun (e : Wire.endpoint) ->
            match e.Wire.ty with
            | Wire.C -> Some (cslot_exn p e.Wire.wire)
            | Wire.Q -> None)
          flat.Circuit.outputs
      in
      let verdict l =
        let b = batch_of p l and bit = bit_of l in
        if b.det land bit <> 0 then Some Detected
        else if b.fb land bit <> 0 then None
        else begin
          let comps =
            List.filter_map
              (fun (col, s) ->
                let x = b.qx.(s) land bit <> 0 and z = b.qz.(s) land bit <> 0 in
                if x || z then Some (col, x, z) else None)
              live_cols
          in
          let comps =
            match semantics with
            | Amplitudes -> comps
            | Tableau ->
                List.fold_left
                  (fun acc (col, xw, zw) ->
                    let x = xw land bit <> 0 and z = zw land bit <> 0 in
                    if x || z then (col, x, z) :: acc else acc)
                  comps b.retained
          in
          let cflips_clear = List.for_all (fun s -> b.cf.(s) land bit = 0) cout_slots in
          Some
            (Done
               (cflips_clear && (comps = [] || Clifford.frame_commutes p.ref_st comps)))
        end
      in
      { verdict; ineligible = false; reasons }

(* ------------------------------------------------------------------ *)
(* Campaigns: the one lane loop                                        *)

let contain f =
  match f () with
  | v -> Done v
  | exception Errors.Error (Errors.Termination_assertion _) -> Detected
  | exception Errors.Error e -> Errored (Errors.to_string e)
  | exception e -> Errored (Printexc.to_string e)

type tally = { frame : int; slow : int; detected : int; fallback_reasons : string list }

(* lanes per frame pass: bounded memory however many lanes a campaign has *)
let chunk = lanes_per_word * 1024

let campaign (module B : Backend.S) (engine : Engine.t) ~lanes ~rounds ~frame ~slow
    ~finish =
  let frame_n = ref 0 and slow_n = ref 0 and detected = ref 0 in
  let reasons = ref [] in
  let note r = if not (List.mem r !reasons) then reasons := r :: !reasons in
  (* the one engine rule: the backend's state comparison decides the
     masked-fault semantics, and a backend that observes classical bits
     only has none, so it runs slow *)
  let semantics =
    if engine = `Slow then None
    else
      match B.observe (B.create ~seed:1 ()) with
      | Backend.Obs_tableau _ -> Some Tableau
      | Backend.Obs_amplitudes _ -> Some Amplitudes
      | Backend.Obs_bits _ ->
          if engine = `Frame then
            note
              (Printf.sprintf
                 "frame: backend %s observes classical bits only; campaign ran on the slow path"
                 B.name);
          None
  in
  let all_slow = ref false in
  let retry = ref [] in
  let settle round lane v =
    match v with
    | Detected ->
        incr detected;
        if round + 1 < rounds then retry := lane :: !retry else finish ~lane ~round v
    | _ -> finish ~lane ~round v
  in
  let slow_lane round lane =
    incr slow_n;
    settle round lane (slow ~lane ~round)
  in
  let run_round round n lane_at =
    let base = ref 0 in
    while !base < n do
      let m = min chunk (n - !base) and b0 = !base in
      let lane i = lane_at (b0 + i) in
      (match semantics with
      | Some sem when not !all_slow ->
          let v = frame sem ~round ~lanes:m ~lane in
          List.iter note v.reasons;
          if v.ineligible then all_slow := true;
          for i = 0 to m - 1 do
            match v.verdict i with
            | Some r ->
                incr frame_n;
                settle round (lane i) r
            | None -> slow_lane round (lane i)
          done
      | _ ->
          for i = 0 to m - 1 do
            slow_lane round (lane i)
          done);
      base := b0 + m
    done
  in
  run_round 0 lanes Fun.id;
  let round = ref 1 in
  while !retry <> [] do
    let again = Array.of_list (List.rev !retry) in
    retry := [];
    run_round !round (Array.length again) (Array.get again);
    incr round
  done;
  {
    frame = !frame_n;
    slow = !slow_n;
    detected = !detected;
    fallback_reasons = List.rev !reasons;
  }
