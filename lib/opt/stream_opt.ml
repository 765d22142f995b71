(** Streaming peephole optimisation over a bounded look-behind window.

    The window is a ring of entry slots in arrival order plus a per-wire
    index: [last] maps each wire to the newest entry touching it, and
    every entry keeps its gate's distinct wires as a sorted array with,
    per wire, the entry that was newest on it when it arrived ([prev])
    and, once one arrives, its direct successor ([next]). An arriving
    gate walks this adjacency toward older entries: step past provable
    commuters, act on a cancellation or fusion partner, stop at anything
    else.

    Rewrites mutate entries in place (clearing [live] marks removal), so
    the emission order of surviving gates is the arrival order —
    retirement advances the ring's head. Retirement is therefore
    monotone in arrival number: an entry has retired exactly when its
    number is below the head's, and a backward walk reaching a retired
    entry stops (everything beyond is out of reach anyway). Links are
    arrival numbers rather than pointers, so a retired slot is reused
    by a later gate and a stale link is recognised by its number; the
    ring doubles only when every slot is in the window. Only live
    entries are window pressure — a removed one would otherwise push a
    partner out before it could pair — and a separate bound of four
    windows on all held entries keeps memory O(window). The [last] index
    and the constant map are int-keyed open-addressing tables, and the
    walk keeps its per-wire cursors in one reused array, so the window
    allocates nothing per gate beyond what a rewrite builds.

    Constant propagation runs at arrival, before the walks. Arrival
    order equals emission order, and every rewrite is semantics-exact,
    so the transfer function sees a stream equivalent to what is
    emitted. A removal can make it see more than it did at arrival —
    cancel an H·H pair on a known wire and the wire is known again — so
    each entry records its wires' constants before its gate, and a
    removal restores the frontier value from them ([restore]). With
    that, a fused gate re-examined in place and the retrigger worklist,
    one stage reaches the fixpoint of its rules. *)

open Quipper

type stats = {
  mutable seen : int;
  mutable emitted : int;
  mutable cancelled : int;
  mutable fused : int;
  mutable flipped : int;
  mutable const_controls : int;
  mutable const_deleted : int;
  mutable boxes_optimized : int;
  mutable box_hits : int;
  mutable box_replayed : int;
      (** bodies served by per-angle replay of a skeleton-keyed memo *)
}

let stats_create () =
  {
    seen = 0;
    emitted = 0;
    cancelled = 0;
    fused = 0;
    flipped = 0;
    const_controls = 0;
    const_deleted = 0;
    boxes_optimized = 0;
    box_hits = 0;
    box_replayed = 0;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "stream-opt: %d gates in, %d out; cancelled %d pairs, fused %d, flipped \
     %d X-sandwiches; constants: %d controls dropped, %d gates deleted; \
     boxes: %d optimized, %d cache hits, %d angle-replayed"
    st.seen st.emitted st.cancelled st.fused st.flipped st.const_controls
    st.const_deleted st.boxes_optimized st.box_hits st.box_replayed

let default_window = 256

let default_lookahead = 32

(* ------------------------------------------------------------------ *)
(* Rule kernels                                                        *)

(* The NOT-conjugation rule: [X·Λ(U)·X = Λ'(U)] where the sandwiched
   gates use the X'ed wire only as a control, and [Λ'] is [Λ] with that
   control's polarity flipped. [is_plain_x] recognises the conjugating
   gate: an uncontrolled single-target [not]/[X]. *)
let is_plain_x = function
  | Gate.Gate { name = "not" | "X"; targets = [ _ ]; controls = []; _ } -> true
  | _ -> false

(* [w] appears in the gate's control list and nowhere else. *)
let uses_only_as_control g w =
  List.exists (fun (c : Gate.control) -> c.cwire = w) (Gate.controls g)
  &&
  match g with
  | Gate.Gate { targets; _ } | Gate.Rot { targets; _ } -> not (Wire.mem w targets)
  | Gate.Phase _ -> true
  | Gate.Subroutine { inputs; outputs; _ } ->
      not (Wire.mem w inputs || Wire.mem w outputs)
  | _ -> false

let with_controls g controls =
  match g with
  | Gate.Gate r -> Gate.Gate { r with controls }
  | Gate.Rot r -> Gate.Rot { r with controls }
  | Gate.Phase r -> Gate.Phase { r with controls }
  | Gate.Subroutine r -> Gate.Subroutine { r with controls }
  | g -> g

let flip_control_on w g =
  let flip (c : Gate.control) =
    if c.cwire = w then { c with Gate.positive = not c.positive } else c
  in
  with_controls g (List.map flip (Gate.controls g))

(* Classical constant propagation from [Init0]/[Init1] and classical
   [Cgate] evaluation, one gate at a time: [cp] maps wires to their known
   basis values (0 or 1), [cp_step] processes one gate and returns what
   to emit: [dropped_gate] deletes it (a control provably contradicts a
   known value, or a swap of known-equal wires); otherwise the gate with
   its provably-satisfied controls removed, counted in [st]. Known
   values flow through X/Y flips, diagonal gates, measurements and
   classical logic, and die at H-like gates and subroutine calls. *)
type cp = Wire.Itbl.t

let dropped_gate = Gate.Comment { text = "dropped"; labels = [] }

let rec forget_all known = function
  | [] -> ()
  | w :: ws ->
      Wire.Itbl.remove known w;
      forget_all known ws

let rec controls_known known = function
  | [] -> false
  | (c : Gate.control) :: cs -> Wire.Itbl.find known c.cwire >= 0 || controls_known known cs

(* what a unitary gate does to the known values: [g], or
   [dropped_gate] for a swap of known-equal wires (the identity) *)
let cp_unitary known st g =
  match g with
  | Gate.Gate { name = "not" | "X" | "Y"; targets = [ w ]; controls = []; _ } ->
      let v = Wire.Itbl.find known w in
      if v >= 0 then Wire.Itbl.replace known w (1 - v);
      g
  | Gate.Gate { name = "swap"; targets = [ a; b ]; controls = []; _ } ->
      let va = Wire.Itbl.find known a and vb = Wire.Itbl.find known b in
      if va >= 0 && va = vb then begin
        st.const_deleted <- st.const_deleted + 1;
        dropped_gate
      end
      else begin
        if va >= 0 then Wire.Itbl.replace known b va else Wire.Itbl.remove known b;
        if vb >= 0 then Wire.Itbl.replace known a vb else Wire.Itbl.remove known a;
        g
      end
  | Gate.Subroutine { inputs; outputs; _ } ->
      forget_all known inputs;
      forget_all known outputs;
      g
  | g when Gate.is_diagonal g ->
      (* a diagonal gate fixes every basis value *)
      g
  | g ->
      forget_all known (Gate.targets g);
      g

let cp_step (known : cp) (st : stats) (g : Gate.t) : Gate.t =
  match g with
  | Gate.Init { value; wire; _ } ->
      Wire.Itbl.replace known wire (Bool.to_int value);
      g
  | Gate.Term { wire; _ } | Gate.Discard { wire; _ } ->
      Wire.Itbl.remove known wire;
      g
  | Gate.Measure _ ->
      (* a known wire is in a basis state: measuring preserves the
         value, the wire merely turns classical *)
      g
  | Gate.Cgate { name; out; ins } ->
      let vals = List.map (Wire.Itbl.find known) ins in
      (match
         if List.mem (-1) vals then None
         else Gate.eval_cgate name (List.map (( = ) 1) vals)
       with
      | Some v -> Wire.Itbl.replace known out (Bool.to_int v)
      | None -> Wire.Itbl.remove known out);
      g
  | Gate.Comment _ -> g
  | Gate.Gate _ | Gate.Rot _ | Gate.Phase _ | Gate.Subroutine _ -> (
      let cs = Gate.controls g in
      (* nothing known about any control (the common case): the gate
         passes as is, allocating nothing *)
      if not (controls_known known cs) then cp_unitary known st g
      else
        let value (c : Gate.control) = Wire.Itbl.find known c.cwire in
        let contradicts c =
          let v = value c in
          v >= 0 && (v = 1) <> c.Gate.positive
        in
        if List.exists contradicts cs then
          match g with
          | Gate.Subroutine { inputs; outputs; _ } when inputs <> outputs ->
              (* the call never fires, but deleting it would orphan its
                 output wire ids; keep it untouched, satisfied controls
                 included *)
              forget_all known inputs;
              forget_all known outputs;
              g
          | _ ->
              (* never fires and targets = outputs: delete *)
              st.const_deleted <- st.const_deleted + 1;
              dropped_gate
        else
          (* every known control always fires: drop those *)
          let kept = List.filter (fun c -> value c < 0) cs in
          let g = cp_unitary known st (with_controls g kept) in
          if g != dropped_gate then
            st.const_controls <- st.const_controls + List.length cs - List.length kept;
          g)

(* ------------------------------------------------------------------ *)
(* The window                                                          *)

(* One window entry. Entries are slots of a ring, reused once retired,
   and every link between them is an arrival sequence number ([-1]:
   none), so a slot's fields are all overwritten in place and nothing
   is allocated per gate. *)
type entry = {
  mutable seq : int;  (** arrival number; the slot is [ring.(seq mod size)] *)
  mutable g : Gate.t;
  mutable live : bool;  (** [false]: removed by a rewrite *)
  mutable diag : bool;
      (** cached [Gate.is_diagonal] of [g]; two diagonal gates always
          commute *)
  mutable site : int;
      (** input angle-site index ([Rot]/[Phase] arrival order; [-1]:
          none), for the box-body replay memo's output provenance *)
  mutable queued : bool;  (** already on the re-examination worklist *)
  mutable nws : int;
  mutable ws : Wire.t array;
      (** the first [nws] cells: the gate's distinct wires, ascending, at
          insertion (rewrites never change them) *)
  mutable prev : int array;
      (** per wire of [ws]: the newest older entry on it at insertion
          ([-1]: none; [removed_and_retired] once that entry, removed,
          has retired) *)
  mutable next : int array;  (** per wire of [ws]: the direct successor *)
  mutable before : int array;
      (** per wire of [ws]: its known constant (0 or 1; [-1]: unknown)
          just before the gate, for [restore] *)
}

let fresh_entry () =
  {
    seq = -1;
    g = dropped_gate;
    live = false;
    diag = false;
    site = -1;
    queued = false;
    nws = 0;
    ws = Array.make 4 0;
    prev = Array.make 4 (-1);
    next = Array.make 4 (-1);
    before = Array.make 4 (-1);
  }

type win = {
  window : int;  (** how many live entries the window holds *)
  span : int;
      (** how many entries, live or removed, it holds: removed entries
          are not window pressure, but this keeps memory O(window) *)
  lookahead : int;
  st : stats;
  emit : Gate.t -> int -> unit;
      (** surviving gate plus its input angle-site provenance ([-1]: none) *)
  mutable ring : entry array;
      (** power-of-two size; entry [s] sits at [s land (size - 1)] for
          [head <= s < nseq] *)
  mutable head : int;
      (** oldest entry still in the window: retirement is FIFO, so an
          entry is retired exactly when its [seq < head] *)
  mutable nseq : int;
  mutable nlive : int;  (** live entries in [head .. nseq - 1] *)
  last : Wire.Itbl.t;  (** wire -> newest entry on it *)
  cp : cp;
  mutable spare_ws : int array;
  mutable spare_before : int array;
      (** scratch for [restage]: an arriving gate's wires and their
          constants, kept while the entry is refilled with the gate
          that constant propagation left *)
  mutable todo : int array;
      (** re-examination worklist, a FIFO ring of entries — a removal
          may unblock pairs that were separated by the removed gate, so
          the removed entry's live successors get their walks retried,
          and a gate that absorbed a fusion partner is retried itself,
          cascading *)
  mutable todo_head : int;
  mutable todo_len : int;
  mutable cursors : int array;  (** the backward walk's, one per wire *)
  mutable angle_sensitive : bool;
      (** an angle-dependent rewrite fired: a [Rot] cancellation tests
          angle equality, a [Rot]/[Phase] fusion sums angles (and may
          drop the zero-angle result) — once any of those happens, the
          rewritten stream is only valid at these exact angles *)
}

let win_create ~window ~lookahead ~st emit =
  let window = max window 0 in
  {
    window;
    span = (if window > max_int / 4 then max_int else 4 * window);
    lookahead;
    st;
    emit;
    ring = Array.init 16 (fun _ -> fresh_entry ());
    head = 0;
    nseq = 0;
    nlive = 0;
    last = Wire.Itbl.create 64;
    cp = Wire.Itbl.create 32;
    spare_ws = Array.make 4 0;
    spare_before = Array.make 4 (-1);
    todo = Array.make 16 0;
    todo_head = 0;
    todo_len = 0;
    cursors = Array.make 4 (-1);
    angle_sensitive = false;
  }

let entry w s = w.ring.(s land (Array.length w.ring - 1))

(* index of wire [wi] in the ascending first [n] cells of [ws], which
   hold it: a binary search, since a wide call's neighbours look up
   their wires in its array. The array types here and in the sort below
   are spelled out: left polymorphic, every comparison would be a call
   to the runtime's generic compare. *)
let index_in (ws : Wire.t array) n wi =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ws.(mid) < wi then lo := mid + 1 else hi := mid
  done;
  !lo

let wire_index e wi = index_in e.ws e.nws wi

let grow_ring w =
  let old = w.ring in
  let n = 2 * Array.length old in
  let ring = Array.make n old.(0) in
  for s = w.head to w.nseq - 1 do
    ring.(s land (n - 1)) <- old.(s land (Array.length old - 1))
  done;
  for s = w.nseq to w.head + n - 1 do
    ring.(s land (n - 1)) <- fresh_entry ()
  done;
  w.ring <- ring

(* append [wi] to [e.ws], unsorted; [set_gate] sorts once at the end *)
let push_wire e wi =
  let n = e.nws in
  if n = Array.length e.ws then begin
    let ws = Array.make (2 * n) 0 in
    Array.blit e.ws 0 ws 0 n;
    e.ws <- ws;
    e.prev <- Array.make (2 * n) (-1);
    e.next <- Array.make (2 * n) (-1);
    e.before <- Array.make (2 * n) (-1)
  end;
  e.ws.(n) <- wi;
  e.nws <- n + 1

let rec push_wires e = function
  | [] -> ()
  | wi :: ws ->
      push_wire e wi;
      push_wires e ws

let rec push_controls e = function
  | [] -> ()
  | (c : Gate.control) :: cs ->
      push_wire e c.cwire;
      push_controls e cs

(* merge the ascending runs [src.(lo .. mid-1)] and [src.(mid .. hi-1)]
   into [dst.(lo .. hi-1)] *)
let merge (src : Wire.t array) dst lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && src.(!i) <= src.(!j)) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

(* Sort the first [n] cells of [a] ascending, with [tmp] (as long) as
   scratch, by bottom-up merge sort: O(n log n) for a wide call's
   thousands of wires, allocating nothing. *)
let sort_prefix (a : Wire.t array) tmp n =
  let src = ref a and dst = ref tmp and width = ref 1 in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min (!lo + !width) n and hi = min (!lo + (2 * !width)) n in
      merge !src !dst !lo mid hi;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* [e] holds [g]: its diagonality and the wires of [Gate.wires g],
   distinct and ascending, except that comments have none — they hold a
   ring slot so printing order survives, but never obstruct a walk *)
let set_gate e (g : Gate.t) =
  e.g <- g;
  e.diag <- Gate.is_diagonal g;
  e.nws <- 0;
  (match g with
  | Gate.Comment _ -> ()
  | Gate.Gate { targets; controls; _ } | Gate.Rot { targets; controls; _ } ->
      push_wires e targets;
      push_controls e controls
  | Gate.Phase { controls; _ } -> push_controls e controls
  | Gate.Init { wire; _ } | Gate.Term { wire; _ } | Gate.Discard { wire; _ }
  | Gate.Measure { wire } ->
      push_wire e wire
  | Gate.Cgate { out; ins; _ } ->
      push_wire e out;
      push_wires e ins
  | Gate.Subroutine { inputs; outputs; controls; _ } ->
      push_wires e inputs;
      push_wires e outputs;
      push_controls e controls);
  sort_prefix e.ws e.next e.nws;
  let k = ref (min e.nws 1) in
  for i = 1 to e.nws - 1 do
    if e.ws.(i) <> e.ws.(!k - 1) then begin
      e.ws.(!k) <- e.ws.(i);
      incr k
    end
  done;
  e.nws <- !k

(* The window's commutation test: the [diag && diag] pre-test, then
   [Gate.commutes_sorted] on the cached wire arrays. *)
let entries_commute x e =
  (x.diag && e.diag) || Gate.commutes_sorted x.g x.ws x.nws e.g e.ws e.nws

let entry_commutes a b =
  let x = fresh_entry () and e = fresh_entry () in
  set_gate x a;
  set_gate e b;
  entries_commute x e

(* A [prev] link to an entry that a rewrite removed and that has since
   retired: like any retired link it is out of a walk's reach, and it
   tells [restore] that the value recorded after it is not the
   output's. *)
let removed_and_retired = -2

let retire_one w =
  let e = entry w w.head in
  if e.live then begin
    w.emit e.g e.site;
    w.nlive <- w.nlive - 1;
    if not (Gate.is_comment e.g) then w.st.emitted <- w.st.emitted + 1
  end;
  w.head <- w.head + 1;
  for i = 0 to e.nws - 1 do
    let wi = e.ws.(i) in
    if Wire.Itbl.find w.last wi = e.seq then Wire.Itbl.remove w.last wi
    else if not e.live then begin
      let n = entry w e.next.(i) in
      n.prev.(wire_index n wi) <- removed_and_retired
    end
  done

(* Fill the next free slot with [g] and record the known constant of
   each of its wires, before constant propagation runs on [g]; the slot
   joins the window only at [commit]. *)
let stage w (g : Gate.t) =
  if w.nseq - w.head = Array.length w.ring then grow_ring w;
  let e = entry w w.nseq in
  set_gate e g;
  for i = 0 to e.nws - 1 do
    e.before.(i) <- Wire.Itbl.find w.cp e.ws.(i)
  done;
  e

(* Constant propagation rewrote the staged gate to [g], dropping
   satisfied controls: refill [e], keeping each remaining wire's
   recorded constant. *)
let restage w e (g : Gate.t) =
  let n = e.nws in
  if Array.length w.spare_ws < n then begin
    w.spare_ws <- Array.make (Array.length e.ws) 0;
    w.spare_before <- Array.make (Array.length e.ws) (-1)
  end;
  Array.blit e.ws 0 w.spare_ws 0 n;
  Array.blit e.before 0 w.spare_before 0 n;
  set_gate e g;
  for i = 0 to e.nws - 1 do
    e.before.(i) <- w.spare_before.(index_in w.spare_ws n e.ws.(i))
  done

(* Link the staged slot in as the newest entry, then retire the oldest
   entries while more than [window] are live or more than [span] are
   held. *)
let commit w ~site e =
  let s = w.nseq in
  e.seq <- s;
  e.live <- true;
  e.site <- site;
  e.queued <- false;
  for i = 0 to e.nws - 1 do
    let wi = e.ws.(i) in
    let p = Wire.Itbl.find w.last wi in
    e.prev.(i) <- p;
    e.next.(i) <- -1;
    if p >= 0 then begin
      let pe = entry w p in
      pe.next.(wire_index pe wi) <- s
    end;
    Wire.Itbl.replace w.last wi s
  done;
  w.nseq <- s + 1;
  w.nlive <- w.nlive + 1;
  while w.nlive > w.window || w.nseq - w.head > w.span do
    retire_one w
  done

let todo_push w s =
  let n = Array.length w.todo in
  if w.todo_len = n then begin
    let q = Array.make (2 * n) 0 in
    for k = 0 to n - 1 do
      q.(k) <- w.todo.((w.todo_head + k) land (n - 1))
    done;
    w.todo <- q;
    w.todo_head <- 0
  end;
  w.todo.((w.todo_head + w.todo_len) land (Array.length w.todo - 1)) <- s;
  w.todo_len <- w.todo_len + 1

let requeue w e =
  if not e.queued then begin
    e.queued <- true;
    todo_push w e.seq
  end

(* A removal may unblock walks the removed gate obstructed — and not
   just its immediate neighbour's: a stalled multi-wire walk stops the
   moment ONE wire's next gate fails to commute, so any later entry
   sharing a wire with the removed gate may now get further. Schedule
   every live successor on the removed entry's wires for a fresh walk
   (successors are never retired while [e] is in the window —
   retirement is FIFO). This is the in-window counterpart of fixpoint
   rounds: cascading, but local to where something changed and bounded
   by the window. *)
let retrigger w e =
  for i = 0 to e.nws - 1 do
    let wi = e.ws.(i) in
    let s = ref e.next.(i) in
    while !s >= 0 do
      let n = entry w !s in
      if n.live then requeue w n;
      s := n.next.(wire_index n wi)
    done
  done

(* Constant propagation ran at arrival, so a value the removed gates
   destroyed (an H·H pair on a known wire) stays lost to later
   arrivals. Recover it: on each wire of the removed [e] whose newest
   entry is removed, the frontier value is the one recorded before the
   oldest removed entry of that newest run — the value after the nearest
   live entry, or after whatever preceded the wire's first entry in the
   window. Every removal is semantics-exact, so the value holds for the
   surviving stream — unless the run continues past the window's edge
   into removed entries ([removed_and_retired]): then a partner of the
   run's oldest entry may be among them (an X·X pair whose first X
   retired), and the recorded value includes a gate the output lacks.
   Only unknown wires are written: a known value is already the same
   fact. *)
let restore w e =
  for i = 0 to e.nws - 1 do
    let wi = e.ws.(i) in
    if Wire.Itbl.find w.cp wi < 0 then begin
      let x = ref (entry w (Wire.Itbl.find w.last wi)) in
      if not !x.live then begin
        let j = ref (wire_index !x wi) in
        let p = ref !x.prev.(!j) in
        while !p >= w.head && not (entry w !p).live do
          x := entry w !p;
          j := wire_index !x wi;
          p := !x.prev.(!j)
        done;
        let v = !x.before.(!j) in
        if v >= 0 && !p <> removed_and_retired then Wire.Itbl.replace w.cp wi v
      end
    end
  done

let remove w e =
  e.live <- false;
  w.nlive <- w.nlive - 1;
  retrigger w e;
  restore w e

(* Step every cursor of [e]'s walk that stands on [x] to [x]'s
   predecessor on that wire (below [head] once none is in reach). *)
let advance_past w e x =
  for i = 0 to e.nws - 1 do
    if w.cursors.(i) = x.seq then w.cursors.(i) <- x.prev.(wire_index x e.ws.(i))
  done

let angled h g = Gate.has_angle h || Gate.has_angle g

(* [e]'s backward walk from the newest cursor [x]: a removed [x] or a
   provable commuter is stepped past, a cancellation or fusion partner
   is acted on and ends the walk, anything else ends it too. So does a
   retired [x] — retirement is FIFO, so everything beyond it is out of
   reach anyway. *)
let rec walk w e steps =
  let s = ref (-1) in
  for i = 0 to e.nws - 1 do
    if w.cursors.(i) > !s then s := w.cursors.(i)
  done;
  if !s >= w.head then begin
    let x = entry w !s in
    if not x.live then begin
      advance_past w e x;
      walk w e steps
    end
    else if steps < w.lookahead then begin
      let h = x.g and g = e.g in
      if Transform.gates_cancel h g then begin
        w.st.cancelled <- w.st.cancelled + 1;
        if angled h g then w.angle_sensitive <- true;
        remove w x;
        remove w e
      end
      else
        match Gate.fusion h g with
        | Some f ->
            (* fusion partners commute with exactly what [h] did: sound
               to leave the result at the earlier position *)
            w.st.fused <- w.st.fused + 1;
            if angled h g then w.angle_sensitive <- true;
            remove w e;
            if Gate.is_identity f then remove w x
            else begin
              x.g <- f;
              x.diag <- Gate.is_diagonal f;
              (* the fused gate may now pair with an older one
                 ([T·T = S] meets an [S]) *)
              requeue w x;
              retrigger w x
            end
        | None ->
            if entries_commute x e then begin
              advance_past w e x;
              walk w e (steps + 1)
            end
    end
  end

(* The backward commuting walk for [e] at its own position: nearest
   preceding live entry on any of its wires first; removed entries are
   skipped for free. The cursors hold, per wire of [e], the newest entry
   the walk has not yet passed on that wire. *)
let match_entry w e =
  if Array.length w.cursors < e.nws then w.cursors <- Array.make e.nws (-1);
  Array.blit e.prev 0 w.cursors 0 e.nws;
  walk w e 0

(* The NOT-conjugation sandwich, scanned backward on the X'ed wire
   alone: gates using the wire only as a control may sit between; an
   older plain X closes the sandwich — flip the polarities of the live
   entries between, remove both X's. Tried before the generic walk
   because a control on the wire blocks commutation, so the walk could
   never reach the partner. *)
let rec scan_flip w wi s steps =
  if s < w.head then -1
  else
    let x = entry w s in
    let up = x.prev.(wire_index x wi) in
    if not x.live then scan_flip w wi up steps
    else if steps > w.lookahead then -1
    else if is_plain_x x.g then s
    else if uses_only_as_control x.g wi then scan_flip w wi up (steps + 1)
    else -1

let flip_entry w e =
  let wi = e.ws.(0) in
  let partner = scan_flip w wi e.prev.(0) 0 in
  partner >= 0
  && begin
       let s = ref e.prev.(0) in
       while !s <> partner do
         let x = entry w !s in
         if x.live then x.g <- flip_control_on wi x.g;
         s := x.prev.(wire_index x wi)
       done;
       w.st.flipped <- w.st.flipped + 1;
       remove w (entry w partner);
       remove w e;
       true
     end

let examine w e =
  if e.live && e.seq >= w.head then
    if not (is_plain_x e.g && flip_entry w e) then match_entry w e

let drain w =
  while w.todo_len > 0 do
    let s = w.todo.(w.todo_head) in
    w.todo_head <- (w.todo_head + 1) land (Array.length w.todo - 1);
    w.todo_len <- w.todo_len - 1;
    if s >= w.head then begin
      let e = entry w s in
      e.queued <- false;
      examine w e
    end
  done

let on_gate ~site w (g : Gate.t) =
  match g with
  | Gate.Comment _ -> commit w ~site (stage w g)
  | g ->
      w.st.seen <- w.st.seen + 1;
      let e = stage w g in
      let g' = cp_step w.cp w.st g in
      if g' != dropped_gate then begin
        if g' != g then restage w e g';
        commit w ~site e;
        examine w e;
        drain w
      end

let flush w =
  while w.head < w.nseq do
    retire_one w
  done

(* ------------------------------------------------------------------ *)
(* Box bodies                                                          *)

(* One body, through a private window (fresh wire chains, fresh
   constant-propagation state), into an array. Input [Rot]/[Phase]
   gates are numbered in arrival order ([Circuit.angles_t] order); each
   surviving gate remembers which input site it came from, and
   [angle_sensitive] reports whether any rewrite decision read an angle
   value. When it did not, the result is valid as a {e template}: the
   same body at different angles optimizes to the same gate sequence
   with the new angles substituted at the recorded sites. *)
let optimize_gates_tagged ~window ~lookahead ~st (gates : Gate.t array) =
  let out = Vec.create () in
  let w =
    win_create ~window ~lookahead ~st (fun g site ->
        Vec.push out (g, if site < 0 then None else Some site))
  in
  let nsite = ref 0 in
  Array.iter
    (fun g ->
      if Gate.has_angle g then begin
        let i = !nsite in
        incr nsite;
        on_gate ~site:i w g
      end
      else on_gate ~site:(-1) w g)
    gates;
  flush w;
  let pairs = Vec.to_array out in
  (Array.map fst pairs, Array.map snd pairs, w.angle_sensitive)

(* ------------------------------------------------------------------ *)
(* Skeleton-keyed body memo                                            *)

(* A parameter sweep optimizes the same box bodies at many angle
   vectors; the per-sink [optimized] table (exact resolved hash) misses
   on every point. This shareable memo keys on the {e skeleton} hash
   ([Circuit.hash_skeleton_t], angle-blind) instead: an
   angle-insensitive body optimizes once and replays per point by pure
   angle substitution at the recorded sites; a body where an
   angle-dependent rewrite fired is pinned [Msensitive] and always
   re-optimizes, so results never depend on cache warmth. *)

type memo_entry =
  | Msensitive
  | Mreplay of { gates : Gate.t array; sites : int option array }

type memo = (int64, memo_entry) Quipper_sim.Memo.t

let memo () : memo = Quipper_sim.Memo.create ()

let replay_body ~(v : float array) (gates : Gate.t array)
    (sites : int option array) : Gate.t array =
  Array.mapi
    (fun j g ->
      match sites.(j) with
      | Some i -> Gate.with_angle g v.(i)
      | None -> g)
    gates

(* ------------------------------------------------------------------ *)
(* The sink transformer                                                *)

let sink_one ~window ~lookahead ~st ?memo (inner : 'r Sink.t) : 'r Sink.t =
  let w = win_create ~window ~lookahead ~st (fun g _ -> inner.Sink.on_gate g) in
  (* original definitions, for resolved structural hashing: body caches
     key on the box table's resolved hashes, so redefinitions miss
     instead of alias *)
  let defs = Circuit.Boxdefs.create () in
  let optimized : (int64, Gate.t array) Hashtbl.t = Hashtbl.create 16 in
  (* Optimize one body, consulting the shareable skeleton memo first:
     replay angle-insensitive templates by substitution, re-optimize
     (and record) otherwise. *)
  let optimize_body name (sub : Circuit.subroutine) =
    let gates = sub.Circuit.circ.Circuit.gates in
    let reoptimize () =
      st.boxes_optimized <- st.boxes_optimized + 1;
      let gs, _, _ = optimize_gates_tagged ~window ~lookahead ~st gates in
      gs
    in
    match memo with
    | None -> reoptimize ()
    | Some m -> (
        let computed = ref None in
        let entry, _ =
          Quipper_sim.Memo.find_or_compute m
            (Circuit.Boxdefs.hash_skeleton defs name)
            (fun () ->
              let gs, sites, sensitive =
                optimize_gates_tagged ~window ~lookahead ~st gates
              in
              st.boxes_optimized <- st.boxes_optimized + 1;
              computed := Some gs;
              if sensitive then Msensitive else Mreplay { gates = gs; sites })
        in
        match (!computed, entry) with
        | Some gs, _ -> gs
        | None, Mreplay { gates = tpl; sites } ->
            st.box_replayed <- st.box_replayed + 1;
            replay_body ~v:(Circuit.angles_t sub.Circuit.circ) tpl sites
        | None, Msensitive -> reoptimize ())
  in
  {
    Sink.on_inputs = inner.Sink.on_inputs;
    on_gate = (fun g -> on_gate ~site:(-1) w g);
    on_subroutine_enter = inner.Sink.on_subroutine_enter;
    on_subroutine_exit =
      (fun name (sub : Circuit.subroutine) ->
        let redefined =
          match Circuit.Boxdefs.find defs name with
          | _ -> Some (Circuit.Boxdefs.hash defs name)
          | exception Errors.Error _ -> None
        in
        Circuit.Boxdefs.define defs name sub;
        let h = Circuit.Boxdefs.hash defs name in
        (* a changed definition reaches [inner] only after every call
           held in the window, which downstream expands by the
           definition in force *)
        if redefined <> None && redefined <> Some h then flush w;
        let gates' =
          match Hashtbl.find_opt optimized h with
          | Some gs ->
              st.box_hits <- st.box_hits + 1;
              gs
          | None ->
              let gs = optimize_body name sub in
              Hashtbl.add optimized h gs;
              gs
        in
        (* every rule is phase-exact, so the rewritten body is valid
           under added controls and inversion of its call sites; the
           interface endpoints are untouched *)
        inner.Sink.on_subroutine_exit name
          { sub with Circuit.circ = { sub.Circuit.circ with Circuit.gates = gates' } });
    finish =
      (fun outs ->
        flush w;
        inner.Sink.finish outs);
  }

let default_rounds = 1

(* Stage k's arrival stream is stage k-1's emission stream. One stage
   is already a fixpoint of the rules at its window, so a second one
   only matters at windows too small to hold a cascade: four stages of
   window 2 hold eight gates between them. *)
let sink ?(rounds = default_rounds) ?(window = default_window)
    ?(lookahead = default_lookahead) ?stats ?memo (inner : 'r Sink.t) :
    'r Sink.t =
  let st = match stats with Some s -> s | None -> stats_create () in
  let rec stack k inner =
    if k <= 0 then inner
    else stack (k - 1) (sink_one ~window ~lookahead ~st ?memo inner)
  in
  stack rounds inner

let optimize_b ?rounds ?window ?lookahead ?stats ?memo (b : Circuit.b) :
    Circuit.b =
  Sink.drive b (sink ?rounds ?window ?lookahead ?stats ?memo (Sink.circuit ()))
