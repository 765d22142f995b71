(** Gate fusion for dense simulation.

    The statevector engine pays one full sweep over the [2^n] amplitudes
    per gate. For the deep, narrow circuits Quipper produces — long runs
    of T/S/CZ phases, boxed subroutines called thousands of times (§4.3,
    §5) — most of those sweeps move the same cache lines to apply tiny
    operators. This module is a simulation-side compiler that scans the
    gate stream and merges runs of adjacent gates whose combined qubit
    support stays within a small window into one {e block}:

    - a run that stays diagonal collapses into a single diagonal
      multiply over up to [max_diag_support] wires (diagonal entries
      compose pointwise, so the window can be wide — the table has
      [2^k] entries, not [4^k]);
    - a general run becomes one dense [2^k x 2^k] unitary over at most
      [max_support] wires, applied by the gather/scatter kernel
      {!Kernel.kq_generic};
    - a block that ends up holding a single gate is applied through the
      specialised per-gate kernels of {!Statevector} unchanged — a dense
      [k]-qubit kernel costs O([4^k]) flops per [2^k] amplitudes and
      only wins when it carries several gates.

    Non-unitary gates (Init/Term, measurement, discard, classical
    logic), classically-controlled gates and unknown names are
    {e barriers}: the pending block is flushed and the gate applied
    directly, so the observable event order is untouched.

    On top of fusion sits a per-box compilation cache: the first call to
    a boxed subroutine compiles its body (nested calls included) into a
    fused block program over the body's own wires; every later call
    replays the compiled blocks under a wire remap — O(blocks) kernel
    launches instead of O(gates) dispatches — with the call's controls
    attached to each block and resolved at apply time. Control-neutral
    body gates (Init/Term of ancillas) replay unconditionally even when
    a classical control disables the unitary blocks, exactly as
    [Sink.unbox] expands them.

    Fused blocks multiply the same per-gate matrices in a different
    association order, so amplitudes agree with the unfused engine to
    float reassociation (the differential tests budget 1e-9), while
    classical observations — measurement outcomes, classical wires —
    are bit-identical: probability reductions and sampling happen in
    {!Statevector} on the flushed state. *)

open Quipper
module Cplx = Quipper_math.Cplx
module Mat2 = Quipper_math.Mat2

type config = {
  max_support : int;
      (** dense window K: blocks hold at most [2^K x 2^K] matrices *)
  max_diag_support : int;
      (** wider window for purely diagonal runs ([2^k]-entry tables) *)
}

let default_config = { max_support = 4; max_diag_support = 8 }

type stats = {
  mutable gates_seen : int;  (** top-level gates fed in (calls count as 1) *)
  mutable gates_fused : int;
      (** source gates absorbed into multi-gate blocks (incl. at box
          compile time) *)
  mutable blocks_applied : int;  (** fused-block kernel launches *)
  mutable singles_applied : int;  (** gates applied through per-gate kernels *)
  mutable boxes_compiled : int;
  mutable calls_replayed : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "gates %d, fused %d, blocks %d, singles %d, boxes compiled %d, calls \
     replayed %d"
    s.gates_seen s.gates_fused s.blocks_applied s.singles_applied
    s.boxes_compiled s.calls_replayed

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)

(* A compiled unit. Matrix/table basis-index bit [i] is [wires.(i)];
   [ctrls] are controls resolved at apply time (classical ones can
   disable the whole block — sound for unitary blocks only, which is
   all Bdiag/Bdense ever hold). *)
type block =
  | Bgate of Gate.t  (* apply through the specialised per-gate path *)
  | Bdiag of {
      wires : Wire.t array;
      ctrls : Gate.control list;
      dre : float array; (* 2^k diagonal entries *)
      di : float array;
    }
  | Bdense of {
      wires : Wire.t array;
      ctrls : Gate.control list;
      mre : float array; (* 2^k x 2^k, row-major *)
      mim : float array;
    }

(* ------------------------------------------------------------------ *)
(* Angle sites and re-specialization                                   *)

(* A parameter sweep replays the same block structure at many rotation
   angles. During a {e template} compile every [Rot]/[Phase] gate
   carries its angle-site index in the whole circuit's [Circuit.angles]
   vector (plus a negate flag: [Gate.inverse] on [Phase] bakes a
   negated angle into the gate, so inverse box bodies substitute the
   negated site value). A block that absorbed at least one sited gate
   gets a {e spec}: a closure rebuilding the block bit-identically at a
   new angle vector. Blocks with [None] spec are angle-independent and
   shared across every parameter point. Normal (non-template) runs
   carry no sites, so specs are all [None] and nothing is recorded. *)

type site = (int * bool) option (* (angle index, negate) *)
type gspec = (float array -> Gate.t) option
type bspec = (float array -> block) option

let subst_site (g : Gate.t) i neg (v : float array) : Gate.t =
  let a = if neg then -.v.(i) else v.(i) in
  match g with
  | Gate.Rot r -> Gate.Rot { r with angle = a }
  | Gate.Phase p -> Gate.Phase { p with angle = a }
  | g -> g

let gspec_of (g : Gate.t) (site : site) : gspec =
  match site with
  | None -> None
  | Some (i, neg) -> Some (fun v -> subst_site g i neg v)

let bspec_of_gate (gs : gspec) : bspec =
  match gs with None -> None | Some f -> Some (fun v -> Bgate (f v))

(* A boxed subroutine compiled to blocks over its body wires;
   [callee] is the circuit the call runs, whose formals the replay
   maps. *)
type program = { blocks : (block * bspec) array; callee : Circuit.t }

(* ------------------------------------------------------------------ *)
(* The pending block under construction                                *)

(* What was absorbed, kept so that flush can change its mind: a fused
   sweep pays O(2^k) work per amplitude, so when the accumulated run is
   too short to amortize that, the original items replay individually
   through the specialised kernels instead. *)
type item = Igate of Gate.t * gspec | Iblock of block * bspec

type pending = {
  mutable wires : Wire.t array; (* local bit j <-> wires.(j) *)
  mutable diag : bool;
  mutable dre : float array; (* 2^k when diag, else empty *)
  mutable di : float array;
  mutable mre : float array; (* 4^k when dense, else empty *)
  mutable mim : float array;
  mutable srcgates : int;
  mutable items : item list; (* reversed absorption order *)
  mutable has_angle : bool; (* some absorbed item carries a spec *)
}

let pk p = Array.length p.wires

let local p w =
  let n = Array.length p.wires in
  let rec go i = if i >= n then -1 else if p.wires.(i) = w then i else go (i + 1) in
  go 0

(* Extend the support by one wire (new highest local bit): a diagonal
   table duplicates, a dense matrix becomes I (x) M. *)
let append_wire p w =
  let k = pk p in
  let m = (1 lsl k) - 1 in
  p.wires <- Array.append p.wires [| w |];
  if p.diag then begin
    p.dre <- Array.init (2 lsl k) (fun l -> p.dre.(l land m));
    p.di <- Array.init (2 lsl k) (fun l -> p.di.(l land m))
  end
  else begin
    let d = 1 lsl k in
    let d2 = 2 * d in
    let mre = Array.make (d2 * d2) 0.0 and mim = Array.make (d2 * d2) 0.0 in
    for r = 0 to d2 - 1 do
      for c = 0 to d2 - 1 do
        if r lsr k = c lsr k then begin
          mre.((r * d2) + c) <- p.mre.(((r land m) * d) + (c land m));
          mim.((r * d2) + c) <- p.mim.(((r land m) * d) + (c land m))
        end
      done
    done;
    p.mre <- mre;
    p.mim <- mim
  end

let ensure_wires p ws = List.iter (fun w -> if local p w < 0 then append_wire p w) ws

(* diagonal -> dense, in place *)
let promote p =
  if p.diag then begin
    let d = 1 lsl pk p in
    let mre = Array.make (d * d) 0.0 and mim = Array.make (d * d) 0.0 in
    for l = 0 to d - 1 do
      mre.((l * d) + l) <- p.dre.(l);
      mim.((l * d) + l) <- p.di.(l)
    done;
    p.mre <- mre;
    p.mim <- mim;
    p.dre <- [||];
    p.di <- [||];
    p.diag <- false
  end

(* ------------------------------------------------------------------ *)
(* Absorbing operators into the pending block.

   An op is an operator over [m] of the block's wires: [obits.(i)] is
   the local bit mask of op-basis-index bit [i], and (lcmask, lcwant)
   are the op's own controls as local masks (control wires are part of
   the support). Absorbing multiplies the op onto the block from the
   left (the op acts after everything already absorbed). *)

let op_offsets (obits : int array) =
  let m = Array.length obits in
  Array.init (1 lsl m) (fun s ->
      let o = ref 0 in
      for i = 0 to m - 1 do
        if s land (1 lsl i) <> 0 then o := !o lor obits.(i)
      done;
      !o)

let sub_index (obits : int array) idx =
  let s = ref 0 in
  Array.iteri (fun i b -> if idx land b <> 0 then s := !s lor (1 lsl i)) obits;
  !s

let absorb_diag_into_diag p ~obits ~lcmask ~lcwant ~dr ~dm =
  let d = 1 lsl pk p in
  for l = 0 to d - 1 do
    if l land lcmask = lcwant then begin
      let s = sub_index obits l in
      let ar = dr.(s) and ai = dm.(s) in
      let xr = p.dre.(l) and xi = p.di.(l) in
      p.dre.(l) <- (ar *. xr) -. (ai *. xi);
      p.di.(l) <- (ar *. xi) +. (ai *. xr)
    end
  done

let absorb_diag_into_dense p ~obits ~lcmask ~lcwant ~dr ~dm =
  let d = 1 lsl pk p in
  for r = 0 to d - 1 do
    if r land lcmask = lcwant then begin
      let s = sub_index obits r in
      let ar = dr.(s) and ai = dm.(s) in
      for c = 0 to d - 1 do
        let xr = p.mre.((r * d) + c) and xi = p.mim.((r * d) + c) in
        p.mre.((r * d) + c) <- (ar *. xr) -. (ai *. xi);
        p.mim.((r * d) + c) <- (ar *. xi) +. (ai *. xr)
      done
    end
  done

(* Left-multiply the pending matrix column by column: gather each
   column's [2^m] entries along the op bits, apply the op matrix,
   scatter. Rows failing the op's controls are untouched (identity). *)
let absorb_dense_into_dense p ~obits ~lcmask ~lcwant ~ore ~oim =
  promote p;
  let d = 1 lsl pk p in
  let m = Array.length obits in
  let od = 1 lsl m in
  let offs = op_offsets obits in
  let su = Array.fold_left ( lor ) 0 obits in
  let ur = Array.make od 0.0 and ui = Array.make od 0.0 in
  for c = 0 to d - 1 do
    for r = 0 to d - 1 do
      if r land su = 0 && r land lcmask = lcwant then begin
        for s = 0 to od - 1 do
          let row = r lor offs.(s) in
          ur.(s) <- p.mre.((row * d) + c);
          ui.(s) <- p.mim.((row * d) + c)
        done;
        for s' = 0 to od - 1 do
          let orow = s' * od in
          let ar = ref 0.0 and ai = ref 0.0 in
          for s = 0 to od - 1 do
            let er = ore.(orow + s) and ei = oim.(orow + s) in
            ar := !ar +. ((er *. ur.(s)) -. (ei *. ui.(s)));
            ai := !ai +. ((er *. ui.(s)) +. (ei *. ur.(s)))
          done;
          let row = r lor offs.(s') in
          p.mre.((row * d) + c) <- !ar;
          p.mim.((row * d) + c) <- !ai
        done
      end
    done
  done

(* Local (mask, want) of an all-quantum control list whose wires are
   already in the support. *)
let local_controls p (cs : Gate.control list) =
  List.fold_left
    (fun (m, w) (c : Gate.control) ->
      let b = 1 lsl local p c.cwire in
      (m lor b, if c.positive then w lor b else w))
    (0, 0) cs

let mat_to_floats (m : Mat2.t) =
  let od = Mat2.dim m in
  let ore = Array.make (od * od) 0.0 and oim = Array.make (od * od) 0.0 in
  for r = 0 to od - 1 do
    for c = 0 to od - 1 do
      let e = Mat2.get m r c in
      ore.((r * od) + c) <- Cplx.re e;
      oim.((r * od) + c) <- Cplx.im e
    done
  done;
  (ore, oim)

(* Absorb a fusible gate (unitary, known matrix, all-quantum controls,
   support already in the pending wires). Gate targets [t1..tm] follow
   the |t1..tm> matrix convention: t1 is the HIGH op bit. *)
let absorb_gate p (g : Gate.t) =
  let lcmask, lcwant = local_controls p (Gate.controls g) in
  if Gate.is_diagonal g then
    match g with
    | Gate.Phase { angle; _ } ->
        let dr = [| cos angle |] and dm = [| sin angle |] in
        if p.diag then absorb_diag_into_diag p ~obits:[||] ~lcmask ~lcwant ~dr ~dm
        else absorb_diag_into_dense p ~obits:[||] ~lcmask ~lcwant ~dr ~dm
    | _ ->
        let m = Option.get (Statevector.gate_unitary g) in
        let t = List.hd (Gate.targets g) in
        let obits = [| 1 lsl local p t |] in
        let d0 = Mat2.get m 0 0 and d1 = Mat2.get m 1 1 in
        let dr = [| Cplx.re d0; Cplx.re d1 |]
        and dm = [| Cplx.im d0; Cplx.im d1 |] in
        if p.diag then absorb_diag_into_diag p ~obits ~lcmask ~lcwant ~dr ~dm
        else absorb_diag_into_dense p ~obits ~lcmask ~lcwant ~dr ~dm
  else begin
    let m = Option.get (Statevector.gate_unitary g) in
    let ts = Gate.targets g in
    let nt = List.length ts in
    let obits = Array.make nt 0 in
    List.iteri (fun i w -> obits.(nt - 1 - i) <- 1 lsl local p w) ts;
    let ore, oim = mat_to_floats m in
    absorb_dense_into_dense p ~obits ~lcmask ~lcwant ~ore ~oim
  end

(* Absorb a compiled block (block convention: op bit i = wires.(i)). *)
let absorb_block p (b : block) =
  match b with
  | Bgate _ -> assert false
  | Bdiag { wires; ctrls; dre; di } ->
      let lcmask, lcwant = local_controls p ctrls in
      let obits = Array.map (fun w -> 1 lsl local p w) wires in
      if p.diag then
        absorb_diag_into_diag p ~obits ~lcmask ~lcwant ~dr:dre ~dm:di
      else absorb_diag_into_dense p ~obits ~lcmask ~lcwant ~dr:dre ~dm:di
  | Bdense { wires; ctrls; mre; mim } ->
      let lcmask, lcwant = local_controls p ctrls in
      let obits = Array.map (fun w -> 1 lsl local p w) wires in
      absorb_dense_into_dense p ~obits ~lcmask ~lcwant ~ore:mre ~oim:mim

(* ------------------------------------------------------------------ *)
(* The fuser: greedy window policy                                     *)

type fuser = {
  cfg : config;
  emit : block -> bspec -> unit;
  stats : stats;
  mutable pending : pending option;
}

let all_quantum cs = List.for_all (fun (c : Gate.control) -> c.cty = Wire.Q) cs

let qctrl_wires cs =
  List.filter_map
    (fun (c : Gate.control) ->
      match c.cty with Wire.Q -> Some c.cwire | Wire.C -> None)
    cs

let gate_support (g : Gate.t) = Gate.targets g @ qctrl_wires (Gate.controls g)

(* Fusible: unitary, all controls quantum, matrix semantics known.
   Everything else — including classically-controlled unitaries, whose
   firing depends on the classical environment — is a barrier. *)
let fusible (g : Gate.t) =
  match g with
  | Gate.Phase { controls; _ } -> all_quantum controls
  | Gate.Gate _ | Gate.Rot _ ->
      all_quantum (Gate.controls g) && Statevector.gate_unitary g <> None
  | _ -> false

let fresh_pending ws =
  let wires = Array.of_list ws in
  let d = 1 lsl Array.length wires in
  {
    wires;
    diag = true;
    dre = Array.make d 1.0;
    di = Array.make d 0.0;
    mre = [||];
    mim = [||];
    srcgates = 0;
    items = [];
    has_angle = false;
  }

(* Rebuild a fused block at a new angle vector: re-absorb the recorded
   items, specialized, into a fresh pending over the block's {e final}
   support. Bit-identical to the original incremental-growth absorption:
   local bit positions never move once assigned (wires only append), a
   duplicated diagonal table multiplies duplicated inputs to equal
   products, a dense [I (x) M] extension applies equal float ops
   blockwise (off-block entries stay exactly [0.0]), and promotion fires
   at the same item because gate/block kinds are angle-independent. *)
let respec ~diag ~wires ~(items : item list) (v : float array) : block =
  let d = 1 lsl Array.length wires in
  let p =
    {
      wires;
      diag = true;
      dre = Array.make d 1.0;
      di = Array.make d 0.0;
      mre = [||];
      mim = [||];
      srcgates = 0;
      items = [];
      has_angle = false;
    }
  in
  List.iter
    (fun it ->
      match it with
      | Igate (g, gs) ->
          absorb_gate p (match gs with Some f -> f v | None -> g)
      | Iblock (b, sp) ->
          absorb_block p (match sp with Some f -> f v | None -> b))
    items;
  if diag then Bdiag { wires; ctrls = []; dre = p.dre; di = p.di }
  else begin
    promote p;
    Bdense { wires; ctrls = []; mre = p.mre; mim = p.mim }
  end

(* Cost of applying one item, in units of one uncontrolled X sweep
   (~1 ms per 2^20 amplitudes on the reference machine). The constants
   are measured, not derived, on uncontrolled gates: the fused kernels
   pay gather/scatter indirection — a dense k-wire block costs about
   [2.6 * 2^k] sweeps (unrolled k <= 2 bodies are cheaper) and a fused
   diagonal about 3.3 sweeps at any width. Controls are not priced:
   every kernel, fused or not, visits only the control subspace, so a
   gate or block under [c] controls costs about [2^-c] of these figures
   on both sides of the comparison — except a controlled gate absorbed
   into a block, whose control wires join the block's support: it is
   priced as if uncontrolled, which overstates what replaying it would
   cost and so leans toward fusion. Fusion is emitted only when the
   fused form beats replaying the absorbed items one by one. *)
let dense_cost k =
  match k with
  | 0 | 1 -> 3.5
  | 2 -> 7.0
  | 3 -> 22.5
  | 4 -> 41.0
  | k -> 2.6 *. float_of_int (1 lsl k)

let diag_cost = 3.3

let gate_cost (g : Gate.t) =
  match g with
  | Gate.Phase _ -> 0.7
  | _ -> (
      match Gate.fast_class g with
      | Gate.Fast_h | Gate.Fast_w -> 1.5
      | Gate.Fast_generic -> 2.5
      | Gate.Fast_swap -> 0.7
      | _ -> 0.8)

let item_cost = function
  | Igate (g, _) | Iblock (Bgate g, _) -> gate_cost g
  | Iblock (Bdiag _, _) -> diag_cost
  | Iblock (Bdense { wires; _ }, _) -> dense_cost (Array.length wires)

let emit_item fz = function
  | Igate (g, gs) -> fz.emit (Bgate g) (bspec_of_gate gs)
  | Iblock (b, sp) -> fz.emit b sp

(* Flush the pending block: emit the fused form when it is estimated
   cheaper than replaying the absorbed items one by one, otherwise emit
   the items unchanged (the absorption work is wasted, but that is
   generation-side arithmetic on tiny matrices, not a statevector
   sweep). A single plain item always replays as itself. *)
let flush fz =
  match fz.pending with
  | None -> ()
  | Some p -> (
      fz.pending <- None;
      match p.items with
      | [ it ] -> emit_item fz it
      | items ->
          let unfused = List.fold_left (fun a it -> a +. item_cost it) 0.0 items in
          let fused = if p.diag then diag_cost else dense_cost (pk p) in
          if fused < unfused then begin
            fz.stats.gates_fused <- fz.stats.gates_fused + p.srcgates;
            let sp : bspec =
              if not p.has_angle then None
              else
                let diag = p.diag
                and wires = p.wires
                and items = List.rev items in
                Some (fun v -> respec ~diag ~wires ~items v)
            in
            if p.diag then
              fz.emit
                (Bdiag { wires = p.wires; ctrls = []; dre = p.dre; di = p.di })
                sp
            else
              fz.emit
                (Bdense { wires = p.wires; ctrls = []; mre = p.mre; mim = p.mim })
                sp
          end
          else List.iter (emit_item fz) (List.rev items))

(* Union cardinality of the pending support with [ws] (distinct). *)
let union_size p ws =
  Array.length p.wires + List.length (List.filter (fun w -> local p w < 0) ws)

(* Does an operator with non-diagonal part on [targets] and support
   [support] commute with the accumulated pending operator? Against a
   diagonal pending block, any diagonal operator commutes (diagonals
   commute pointwise), and so does a non-diagonal operator whose
   targets avoid the pending support — quantum controls are Z-basis
   projectors, themselves diagonal, so a control on a pending wire is
   harmless. Against a dense pending block only full support
   disjointness is safe. Commuting gates are emitted {e past} the
   pending block instead of flushing it: the observable state is
   unchanged (the operators commute exactly; float reassociation is
   within the tests' 1e-9 budget), and runs survive interleaved
   traffic on other wires — the phase-folding effect that makes
   diagonal fusion pay on realistic circuit mixes. *)
let commutes_past p ~diag ~targets ~support =
  if p.diag then diag || List.for_all (fun w -> local p w < 0) targets
  else List.for_all (fun w -> local p w < 0) support

(* With a single pending slot, a dense block that commutes-past
   everything disjoint would starve diagonal runs elsewhere on the
   register: each diagonal gate slips past one at a time and never
   opens its own window. So a dense pending that has not yet
   accumulated enough work to beat its 2^k kernel — flushing it
   replays the items unchanged, so nothing is lost — yields the slot
   to an arriving disjoint diagonal gate. A dense block that is
   already profitable keeps the slot, and stray diagonal traffic
   commutes past it as before. *)
let yields_to_diag p ~diag ~fully_disjoint =
  (not p.diag) && diag && fully_disjoint
  &&
  match p.items with
  | [ _ ] -> true
  | items ->
      List.fold_left (fun a it -> a +. item_cost it) 0.0 items
      <= dense_cost (pk p)

let rec push_gate fz (gs : gspec) (g : Gate.t) =
  let ws = gate_support g in
  let diag = Gate.is_diagonal g in
  match fz.pending with
  | None ->
      let cap = if diag then fz.cfg.max_diag_support else fz.cfg.max_support in
      if List.length ws > cap then fz.emit (Bgate g) (bspec_of_gate gs)
      else begin
        let p = fresh_pending ws in
        absorb_gate p g;
        p.srcgates <- 1;
        p.items <- [ Igate (g, gs) ];
        p.has_angle <- Option.is_some gs;
        fz.pending <- Some p
      end
  | Some p ->
      (* Policy: absorb when the gate extends the current block kind in
         place — diagonal into diagonal (the wide window), or anything
         overlapping a dense block within the dense window. A
         non-diagonal gate never promotes a diagonal block (promotion
         trades a ~3-sweep diagonal for a 2^k-weight dense matrix), and
         a gate fully disjoint from a dense block is kept out of it
         (merging disjoint supports multiplies cost for no gain); both
         are emitted past the block when they commute with it, else the
         block flushes and the gate restarts the window. *)
      let u = union_size p ws in
      let may_absorb =
        if p.diag then diag && u <= fz.cfg.max_diag_support
        else u <= fz.cfg.max_support
      in
      let fully_disjoint = List.for_all (fun w -> local p w < 0) ws in
      if may_absorb && (p.diag || not fully_disjoint) then begin
        ensure_wires p ws;
        absorb_gate p g;
        p.srcgates <- p.srcgates + 1;
        p.items <- Igate (g, gs) :: p.items;
        if Option.is_some gs then p.has_angle <- true
      end
      else if
        (not (yields_to_diag p ~diag ~fully_disjoint))
        && commutes_past p ~diag ~targets:(Gate.targets g) ~support:ws
      then fz.emit (Bgate g) (bspec_of_gate gs)
      else begin
        flush fz;
        push_gate fz gs g
      end

(* Feed a replayed block through the fuser, so small compiled blocks
   merge with their surroundings; blocks that cannot be absorbed (too
   wide, classical controls) flush and apply as-is. *)
let rec push_block fz (sp : bspec) (b : block) =
  match b with
  | Bgate g ->
      if fusible g then
        let gs : gspec =
          match sp with
          | None -> None
          | Some f ->
              Some
                (fun v ->
                  match f v with Bgate g' -> g' | _ -> assert false)
        in
        push_gate fz gs g
      else begin
        flush fz;
        fz.emit (Bgate g) sp
      end
  | Bdiag { wires; ctrls; _ } | Bdense { wires; ctrls; _ } -> (
      let diag = match b with Bdiag _ -> true | _ -> false in
      if not (all_quantum ctrls) then begin
        flush fz;
        fz.emit b sp
      end
      else
        let ws = Array.to_list wires @ qctrl_wires ctrls in
        match fz.pending with
        | None ->
            let cap =
              if diag then fz.cfg.max_diag_support else fz.cfg.max_support
            in
            if List.length ws > cap then fz.emit b sp
            else begin
              let p = fresh_pending ws in
              absorb_block p b;
              p.srcgates <- 1;
              p.items <- [ Iblock (b, sp) ];
              p.has_angle <- Option.is_some sp;
              fz.pending <- Some p
            end
        | Some p ->
            let u = union_size p ws in
            let may_absorb =
              if p.diag then diag && u <= fz.cfg.max_diag_support
              else u <= fz.cfg.max_support
            in
            let fully_disjoint = List.for_all (fun w -> local p w < 0) ws in
            if may_absorb && (p.diag || not fully_disjoint) then begin
              ensure_wires p ws;
              absorb_block p b;
              p.srcgates <- p.srcgates + 1;
              p.items <- Iblock (b, sp) :: p.items;
              if Option.is_some sp then p.has_angle <- true
            end
            else if
              (not (yields_to_diag p ~diag ~fully_disjoint))
              && commutes_past p ~diag ~targets:(Array.to_list wires)
                   ~support:ws
            then fz.emit b sp
            else begin
              flush fz;
              push_block fz sp b
            end)

(* ------------------------------------------------------------------ *)
(* Simulation state                                                    *)

(* Compiled box programs, keyed (name, inv, body hash). The structural
   hash — box-aware via [Circuit.Boxdefs.hash] — is part of the key so
   that same-named boxes with different bodies can never alias:
   redefining a name simply stops hitting the old entries, and a cache
   shared between states (the shot service hands one cache to every
   worker) stays sound even when two clients define different boxes
   under the same name. *)
type box_cache = (string * bool * int64, program) Memo.t

let box_cache () : box_cache = Memo.create ()

type state = {
  sv : Statevector.state;
  cfg : config;
  st_stats : stats;
  defs : Circuit.Boxdefs.t;
  compiled : box_cache;
  fresh : int ref; (* internal wires of replayed calls, negative *)
  fz : fuser; (* top-level fuser, emitting straight into [sv] *)
  sites_boxes : (string, site array) Hashtbl.t;
      (* template compiles only: per box name, the angle site of each
         forward body gate (aligned with the body's gate array) *)
}

let apply_block st (b : block) =
  match b with
  | Bgate g ->
      st.st_stats.singles_applied <- st.st_stats.singles_applied + 1;
      Statevector.apply_gate st.sv g
  | Bdiag { wires; ctrls; dre; di } -> (
      match Statevector.resolve_controls st.sv ctrls with
      | None -> ()
      | Some (cmask, cwant) ->
          st.st_stats.blocks_applied <- st.st_stats.blocks_applied + 1;
          let bits =
            Array.map (fun w -> 1 lsl Statevector.qubit_index st.sv w) wires
          in
          Statevector.apply_kernel st.sv (fun ~re ~im ~size ->
              Kernel.kq_diag ~re ~im ~size ~bits ~cmask ~cwant ~dre ~di))
  | Bdense { wires; ctrls; mre; mim } -> (
      match Statevector.resolve_controls st.sv ctrls with
      | None -> ()
      | Some (cmask, cwant) ->
          st.st_stats.blocks_applied <- st.st_stats.blocks_applied + 1;
          let bits =
            Array.map (fun w -> 1 lsl Statevector.qubit_index st.sv w) wires
          in
          Statevector.apply_kernel st.sv (fun ~re ~im ~size ->
              Kernel.kq_generic ~re ~im ~size ~bits ~cmask ~cwant ~mre ~mim))

let create ?(config = default_config) ?boxes ?seed () =
  let stats =
    {
      gates_seen = 0;
      gates_fused = 0;
      blocks_applied = 0;
      singles_applied = 0;
      boxes_compiled = 0;
      calls_replayed = 0;
    }
  in
  let rec st =
    {
      sv = Statevector.create ?seed ();
      cfg = config;
      st_stats = stats;
      defs = Circuit.Boxdefs.create ();
      compiled = (match boxes with Some c -> c | None -> box_cache ());
      fresh = ref (-1);
      fz =
        {
          cfg = config;
          emit = (fun b _ -> apply_block st b);
          stats;
          pending = None;
        };
      sites_boxes = Hashtbl.create 1;
    }
  in
  st

(* Compiled programs need no invalidation on redefinition: their keys
   carry the body hash, so the old entries simply stop being looked up. *)
let define st name sub = Circuit.Boxdefs.define st.defs name sub

let remap_block rename (extra : Gate.control list) (b : block) : block =
  match b with
  | Bgate g -> Bgate (Gate.add_controls extra (Gate.rename rename g))
  | Bdiag r ->
      Bdiag
        {
          r with
          wires = Array.map rename r.wires;
          ctrls = List.map (Gate.rename_control rename) r.ctrls @ extra;
        }
  | Bdense r ->
      Bdense
        {
          r with
          wires = Array.map rename r.wires;
          ctrls = List.map (Gate.rename_control rename) r.ctrls @ extra;
        }

(* Feed one gate into a fuser ([fz] is the top-level fuser during
   simulation, an accumulator during box compilation — the same code
   path, so compiled programs fuse exactly as streaming does). [site]
   is the gate's angle-site tag, [None] outside template compiles. *)
let rec feed_site st fz (site : site) (g : Gate.t) =
  match g with
  | Gate.Comment _ -> ()
  | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
      replay st fz ~name ~inv ~inputs ~outputs ~controls
  | g when fusible g -> push_gate fz (gspec_of g site) g
  | g ->
      (* Barrier: measurement, Init/Term, classical logic, classically
         controlled or unknown gates. Most flush the pending block, but
         an Init/Term on a wire outside the pending support — the
         paper's ancilla churn — is a channel on disjoint wires and
         commutes with the accumulated operator exactly, as does purely
         classical bookkeeping; those are emitted past the block so the
         run survives compute/uncompute sandwiches. Measurement and
         Discard sample the RNG against ordered probability sums and
         classically-controlled gates read the classical environment:
         both stay hard barriers so observations stay bit-identical. *)
      let commutes =
        match fz.pending with
        | None -> true
        | Some p -> (
            match g with
            | Gate.Init { ty = Wire.Q; wire; _ }
            | Gate.Term { ty = Wire.Q; wire; _ } ->
                local p wire < 0
            | Gate.Init { ty = Wire.C; _ }
            | Gate.Term { ty = Wire.C; _ }
            | Gate.Discard { ty = Wire.C; _ }
            | Gate.Cgate _ ->
                true
            | _ -> false)
      in
      if not commutes then flush fz;
      (* classically-controlled [Rot]/[Phase] are barriers but still
         angle-bearing: their site survives as a single-gate spec *)
      fz.emit (Bgate g) (bspec_of_gate (gspec_of g site))

(* Replay a compiled program under a wire remap: formals map to the
   call's actual wires, internals to fresh negative ids; the call's
   controls attach to every block. Specs compose with the remap: the
   rename map is fully populated by this (eager) replay, and specs only
   run after compilation completes, so the closure reads a frozen
   table. *)
and replay st fz ~name ~inv ~inputs ~outputs ~controls =
  let prog = compiled_program st ~name ~inv in
  st.st_stats.calls_replayed <- st.st_stats.calls_replayed + 1;
  let fresh () =
    let w = !(st.fresh) in
    decr st.fresh;
    w
  in
  let rename = Circuit.Boxdefs.renamer ~fresh prog.callee ~inputs ~outputs in
  Array.iter
    (fun (b, sp) ->
      let sp' =
        match sp with
        | None -> None
        | Some f -> Some (fun v -> remap_block rename controls (f v))
      in
      push_block fz sp' (remap_block rename controls b))
    prog.blocks

(* Compile a box body to a block program, memoized per
   (name, inv, body hash). Nested calls replay their own compiled
   programs into this one, so a call tree compiles bottom-up into flat
   block sequences. *)
and compiled_program st ~name ~inv : program =
  let key = (name, inv, Circuit.Boxdefs.hash st.defs name) in
  fst (Memo.find_or_compute st.compiled key (fun () -> compile st ~name ~inv))

and compile st ~name ~inv : program =
  let { Circuit.circ; _ } = Circuit.Boxdefs.find st.defs name in
  let callee = Circuit.Boxdefs.callee st.defs name ~inv in
  (* align the body's angle sites with the callee's gates:
     forward bodies use the recorded row as-is; inverse bodies drop
     comments, reverse, and toggle the negate flag on [Phase] sites
     ([Gate.inverse] bakes the negated angle into the gate) *)
  let sites =
    match Hashtbl.find_opt st.sites_boxes name with
    | None -> None
    | Some fwd when not inv -> Some fwd
    | Some fwd ->
        let acc = ref [] in
        Array.iteri
          (fun i g ->
            if not (Gate.is_comment g) then begin
              let s =
                match (g, fwd.(i)) with
                | Gate.Phase _, Some (j, neg) -> Some (j, not neg)
                | _, s -> s
              in
              acc := s :: !acc
            end)
          circ.Circuit.gates;
        Some (Array.of_list !acc)
  in
  let acc = ref [] in
  let cfz =
    {
      cfg = st.cfg;
      emit = (fun b sp -> acc := (b, sp) :: !acc);
      stats = st.st_stats;
      pending = None;
    }
  in
  Array.iteri
    (fun i g ->
      let site =
        match sites with None -> None | Some arr -> arr.(i)
      in
      feed_site st cfz site g)
    callee.Circuit.gates;
  flush cfz;
  st.st_stats.boxes_compiled <- st.st_stats.boxes_compiled + 1;
  { blocks = Array.of_list (List.rev !acc); callee }

(* ------------------------------------------------------------------ *)
(* Public surface                                                      *)

let apply_gate st (g : Gate.t) =
  st.st_stats.gates_seen <- st.st_stats.gates_seen + 1;
  feed_site st st.fz None g

let flush_pending st = flush st.fz

let measure st w =
  flush st.fz;
  Statevector.measure st.sv w

let read_bit st w = Statevector.read_bit st.sv w
let set_bit st w v = Statevector.set_bit st.sv w v

let amplitudes st =
  flush st.fz;
  Statevector.amplitudes st.sv

let prob_one st w =
  flush st.fz;
  Statevector.prob_one st.sv w

let num_qubits st = Statevector.num_qubits st.sv
let qubit_index st w = Statevector.qubit_index st.sv w

let statevector st =
  flush st.fz;
  st.sv

let snapshot st =
  flush st.fz;
  Statevector.snapshot st.sv

let stats st = st.st_stats

let run_fun ?config ?seed ~(in_ : ('b, 'q, 'c) Qdata.t) (input : 'b)
    (f : 'q -> 'r Circ.t) : state * 'r =
  let st = create ?config ?seed () in
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
      apply_gate st (Gate.Init { ty = e.Wire.ty; value = v; wire = e.Wire.wire }))
    ins (in_.Qdata.bleaves input);
  let x = in_.Qdata.qbuild ins in
  let r = f x ctx in
  flush st.fz;
  (st, r)

let measure_and_read st (w : ('b, 'q, 'c) Qdata.t) (q : 'q) : 'b =
  flush st.fz;
  Statevector.measure_and_read st.sv w q

(* A state holding [b]'s definitions, once its input arity checks out. *)
let load ?config ?boxes ?seed what (b : Circuit.b) (inputs : bool list) =
  let st = create ?config ?boxes ?seed () in
  List.iter
    (fun name -> define st name (Circuit.Namespace.find name b.Circuit.subs))
    b.Circuit.sub_order;
  (if List.length inputs <> List.length b.Circuit.main.Circuit.inputs then
     Errors.raise_ (Shape_mismatch (what ^ ": input arity")));
  st

let run_circuit ?config ?boxes ?seed (b : Circuit.b) (inputs : bool list) :
    state =
  let st = load ?config ?boxes ?seed "fused run" b inputs in
  List.iter2
    (fun (e : Wire.endpoint) v ->
      apply_gate st (Gate.Init { ty = e.Wire.ty; value = v; wire = e.Wire.wire }))
    b.Circuit.main.Circuit.inputs inputs;
  Array.iter (apply_gate st) b.Circuit.main.Circuit.gates;
  flush st.fz;
  st

(* ------------------------------------------------------------------ *)
(* Templates: compile once, re-specialize per parameter point          *)

type template = {
  t_blocks : (block * bspec) array; (* whole-run block trace, in order *)
  t_nsites : int; (* length of the expected angle vector *)
}

let template_sites t = t.t_nsites

let template_fused_blocks t =
  Array.fold_left
    (fun n (b, _) -> match b with Bgate _ -> n | _ -> n + 1)
    0 t.t_blocks

let template_specialized_blocks t =
  Array.fold_left
    (fun n (_, sp) -> if Option.is_some sp then n + 1 else n)
    0 t.t_blocks

let compile_template ?(config = default_config) (b : Circuit.b)
    (inputs : bool list) : template =
  (* The compilation cache is private to this template: its programs
     carry this circuit's site numbering and must not leak into shared
     caches. *)
  let st = load ~config "template" b inputs in
  (* whole-circuit angle-site numbering, in [Circuit.angles] order:
     main gates first, then each box body in [sub_order] *)
  let ctr = ref 0 in
  let site_row (c : Circuit.t) : site array =
    Array.map
      (fun g ->
        match g with
        | Gate.Rot _ | Gate.Phase _ ->
            let i = !ctr in
            incr ctr;
            Some (i, false)
        | _ -> None)
      c.Circuit.gates
  in
  let main_sites = site_row b.Circuit.main in
  List.iter
    (fun name ->
      let s = Circuit.Namespace.find name b.Circuit.subs in
      Hashtbl.replace st.sites_boxes name (site_row s.Circuit.circ))
    b.Circuit.sub_order;
  let acc = ref [] in
  let cfz =
    {
      cfg = config;
      emit = (fun blk sp -> acc := (blk, sp) :: !acc);
      stats = st.st_stats;
      pending = None;
    }
  in
  List.iter2
    (fun (e : Wire.endpoint) v ->
      feed_site st cfz None
        (Gate.Init { ty = e.Wire.ty; value = v; wire = e.Wire.wire }))
    b.Circuit.main.Circuit.inputs inputs;
  Array.iteri
    (fun i g -> feed_site st cfz main_sites.(i) g)
    b.Circuit.main.Circuit.gates;
  flush cfz;
  { t_blocks = Array.of_list (List.rev !acc); t_nsites = !ctr }

let specialize (t : template) (v : float array) : block array =
  if Array.length v <> t.t_nsites then
    Errors.invalidf "template: expected %d angles, got %d" t.t_nsites
      (Array.length v);
  Array.map (fun (b, sp) -> match sp with None -> b | Some f -> f v) t.t_blocks

let run_template ?config ?seed (t : template) (v : float array) : state =
  (* The recorded trace already ends in a flush, so applying the
     specialized blocks in order reproduces exactly the [apply_block]
     sequence (and hence the statevector and RNG stream) that
     [run_circuit (Circuit.subst_angles b v) inputs] performs. *)
  let st = create ?config ?seed () in
  let blocks = specialize t v in
  Array.iter (fun blk -> apply_block st blk) blocks;
  st
