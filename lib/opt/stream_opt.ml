(** Streaming peephole optimisation over a bounded look-behind window.

    The window is a FIFO of entries plus a per-wire index: [last] maps
    each wire to the newest live entry touching it, and every entry
    remembers, per wire, the entry that was newest when it arrived
    ([prev]), and, once one arrives, its direct successor ([next]).
    An arriving gate walks this adjacency toward older entries: step
    past provable commuters, act on a cancellation or fusion partner,
    stop at anything else.

    Rewrites mutate entries in place ([g = None] marks removal), so the
    emission order of surviving gates is the arrival order — retirement
    pops the FIFO head. Retirement is therefore monotone in [seq]: once
    an entry is retired, so is everything older, which makes two
    conservative short-cuts sound: a backward walk reaching a retired
    entry stops (everything beyond is out of reach anyway), and retired
    entries drop their [prev] links (bounding memory at O(window)).

    Constant propagation runs at arrival, before the walks. Arrival
    order equals emission order, and every rewrite is semantics-exact,
    so the transfer function sees a stream equivalent to what is
    emitted. *)

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
  | Gate.Gate { targets; _ } | Gate.Rot { targets; _ } -> not (List.mem w targets)
  | Gate.Phase _ -> true
  | Gate.Subroutine { inputs; outputs; _ } ->
      not (List.mem w inputs || List.mem w outputs)
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

let eval_cgate name (ins : bool list) =
  match (name, ins) with
  | "not", [ a ] -> Some (not a)
  | "and", _ -> Some (List.for_all Fun.id ins)
  | "or", _ -> Some (List.exists Fun.id ins)
  | "xor", _ -> Some (List.fold_left ( <> ) false ins)
  | _ -> None

(* Classical constant propagation from [Init0]/[Init1] and classical
   [Cgate] evaluation, one gate at a time: [cp] maps wires to their known
   basis values, [cp_step] processes one gate and says what to do with
   it. [`Drop] deletes it (a control provably contradicts a known value,
   or a swap of known-equal wires); [`Keep (g', n)] emits [g'], the gate
   with [n] provably-satisfied controls removed. Known values flow
   through X/Y flips, diagonal gates, measurements and classical logic,
   and die at H-like gates and subroutine calls. *)
type cp = (Wire.t, bool) Hashtbl.t

let cp_step (known : cp) (g : Gate.t) : [ `Keep of Gate.t * int | `Drop ] =
  let forget w = Hashtbl.remove known w in
  (* split a control list by what the known-value map says about it *)
  let resolve_controls controls =
    let dead = ref false in
    let dropped = ref 0 in
    let kept =
      List.filter
        (fun (c : Gate.control) ->
          match Hashtbl.find_opt known c.Gate.cwire with
          | Some v when v = c.Gate.positive ->
              incr dropped;
              false (* always fires: drop the control *)
          | Some _ ->
              dead := true;
              false
          | None -> true)
        controls
    in
    (kept, !dead, !dropped)
  in
  match g with
  | Gate.Init { value; wire; _ } ->
      Hashtbl.replace known wire value;
      `Keep (g, 0)
  | Gate.Term { wire; _ } | Gate.Discard { wire; _ } ->
      forget wire;
      `Keep (g, 0)
  | Gate.Measure _ ->
      (* a known wire is in a basis state: measuring preserves the
         value, the wire merely turns classical *)
      `Keep (g, 0)
  | Gate.Cgate { name; out = o; ins } ->
      (match
         List.map (fun w -> Hashtbl.find_opt known w) ins
         |> List.fold_left
              (fun acc v ->
                match (acc, v) with Some l, Some x -> Some (x :: l) | _ -> None)
              (Some [])
       with
      | Some vals -> (
          match eval_cgate name (List.rev vals) with
          | Some v -> Hashtbl.replace known o v
          | None -> forget o)
      | None -> forget o);
      `Keep (g, 0)
  | Gate.Comment _ -> `Keep (g, 0)
  | Gate.Gate _ | Gate.Rot _ | Gate.Phase _ | Gate.Subroutine _ -> (
      let kept, dead, dropped = resolve_controls (Gate.controls g) in
      if dead then
        match g with
        | Gate.Subroutine { inputs; outputs; _ } when inputs <> outputs ->
            (* the call never fires, but deleting it would orphan its
               output wire ids; keep it untouched, satisfied controls
               included *)
            List.iter forget inputs;
            List.iter forget outputs;
            `Keep (g, 0)
        | Gate.Subroutine _ | Gate.Gate _ | Gate.Rot _ | Gate.Phase _ ->
            (* never fires and targets = outputs: delete *)
            `Drop
        | _ -> assert false
      else
        let g = with_controls g kept in
        match g with
        | Gate.Gate { name = "not" | "X" | "Y"; targets = [ w ]; controls = []; _ }
          ->
            (match Hashtbl.find_opt known w with
            | Some v -> Hashtbl.replace known w (not v)
            | None -> ());
            `Keep (g, dropped)
        | Gate.Gate { name = "swap"; targets = [ a; b ]; controls = []; _ } -> (
            match (Hashtbl.find_opt known a, Hashtbl.find_opt known b) with
            | Some va, Some vb when va = vb ->
                (* swapping two wires in the same basis state is the
                   identity: delete *)
                `Drop
            | ka, kb ->
                (match ka with Some v -> Hashtbl.replace known b v | None -> forget b);
                (match kb with Some v -> Hashtbl.replace known a v | None -> forget a);
                `Keep (g, dropped))
        | Gate.Subroutine { inputs; outputs; _ } ->
            List.iter forget inputs;
            List.iter forget outputs;
            `Keep (g, dropped)
        | g when Gate.is_diagonal g ->
            (* a diagonal gate fixes every basis value *)
            `Keep (g, dropped)
        | g ->
            List.iter forget (Gate.targets g);
            `Keep (g, dropped))

(* ------------------------------------------------------------------ *)
(* The window                                                          *)

type entry = {
  seq : int;
  mutable g : Gate.t option;  (** [None]: removed by a rewrite *)
  mutable retired : bool;
  ws : Wire.t list;  (** wires at insertion (rewrites never change them) *)
  mask : int;
      (** support bitmask (bit [w mod 62] per wire): a cheap commutation
          pre-test — disjoint masks prove disjoint supports *)
  mutable diag : bool;
      (** cached [Gate.is_diagonal] of [g]; two diagonal gates always
          commute, skipping the allocating [Gate.commutes] walk *)
  mutable site : int option;
      (** input angle-site index ([Rot]/[Phase] arrival order), for the
          box-body replay memo's output provenance *)
  mutable prev : (Wire.t * entry) list;
      (** per wire, the newest older entry on it at insertion time *)
  mutable next : (Wire.t * entry) list;
      (** per wire, the direct successor, once one arrives *)
  mutable queued : bool;  (** already on the re-examination worklist *)
}

type win = {
  window : int;
  lookahead : int;
  st : stats;
  emit : Gate.t -> int option -> unit;
      (** surviving gate plus its input angle-site provenance *)
  q : entry Queue.t;
  last : (Wire.t, entry) Hashtbl.t;
  cp : cp;
  todo : entry Queue.t;
      (** re-examination worklist: the streaming stand-in for the
          materialized fixpoint — a removal may unblock pairs that were
          separated by the removed gate, so the removed entry's nearest
          live successors get their walks retried, cascading *)
  mutable nseq : int;
  mutable angle_sensitive : bool;
      (** an angle-dependent rewrite fired: a [Rot] cancellation tests
          angle equality, a [Rot]/[Phase] fusion sums angles (and may
          drop the zero-angle result) — once any of those happens, the
          rewritten stream is only valid at these exact angles *)
}

let win_create ~window ~lookahead ~st emit =
  {
    window;
    lookahead;
    st;
    emit;
    q = Queue.create ();
    last = Hashtbl.create 64;
    cp = Hashtbl.create 32;
    todo = Queue.create ();
    nseq = 0;
    angle_sensitive = false;
  }

(* comments are transparent to the wire chains: they hold
   a queue slot so printing order survives, but never obstruct a walk *)
let wires_of (g : Gate.t) =
  match g with
  | Gate.Comment _ -> []
  | g ->
      List.sort_uniq Int.compare
        (List.map (fun (e : Wire.endpoint) -> e.Wire.wire) (Gate.wires g))

let retire_one w =
  let e = Queue.pop w.q in
  (match e.g with
  | Some g ->
      w.emit g e.site;
      if not (Gate.is_comment g) then w.st.emitted <- w.st.emitted + 1
  | None -> ());
  e.retired <- true;
  e.prev <- [];
  e.next <- [];
  List.iter
    (fun wi ->
      match Hashtbl.find_opt w.last wi with
      | Some e' when e' == e -> Hashtbl.remove w.last wi
      | _ -> ())
    e.ws

let support_mask ws =
  List.fold_left (fun m wi -> m lor (1 lsl ((wi land max_int) mod 62))) 0 ws

let insert w (g : Gate.t) : entry =
  let ws = wires_of g in
  let e =
    {
      seq = w.nseq;
      g = Some g;
      retired = false;
      ws;
      mask = support_mask ws;
      diag = Gate.is_diagonal g;
      site = None;
      prev = [];
      next = [];
      queued = false;
    }
  in
  w.nseq <- w.nseq + 1;
  e.prev <-
    List.filter_map
      (fun wi -> Option.map (fun p -> (wi, p)) (Hashtbl.find_opt w.last wi))
      ws;
  List.iter (fun (wi, p) -> p.next <- (wi, e) :: p.next) e.prev;
  List.iter (fun wi -> Hashtbl.replace w.last wi e) ws;
  Queue.push e w.q;
  while Queue.length w.q > w.window do
    retire_one w
  done;
  e

let prev_on (e : entry) (wi : Wire.t) =
  Option.map snd (List.find_opt (fun ((w' : int), _) -> w' = wi) e.prev)

let next_on (e : entry) (wi : Wire.t) =
  Option.map snd (List.find_opt (fun ((w' : int), _) -> w' = wi) e.next)

(* A removal may unblock walks the removed gate obstructed — and not
   just its immediate neighbour's: a stalled multi-wire walk stops the
   moment ONE wire's next gate fails to commute, so any later entry
   sharing a wire with the removed gate may now get further. Schedule
   every live successor on the removed entry's wires for a fresh walk
   (successors are never retired while [e] is in the window —
   retirement is FIFO). This is the in-window counterpart of fixpoint
   rounds: cascading, but local to where something changed and bounded
   by the window. *)
let retrigger w (e : entry) =
  List.iter
    (fun wi ->
      let rec push n =
        match next_on n wi with
        | None -> ()
        | Some n' ->
            (match n'.g with
            | Some _ when not n'.queued ->
                n'.queued <- true;
                Queue.push n' w.todo
            | _ -> ());
            push n'
      in
      push e)
    e.ws

let remove w (e : entry) =
  e.g <- None;
  retrigger w e

(* The backward commuting walk for [e] at its own position: nearest
   preceding live entry on any of its wires first. Removed entries are
   skipped for free;
   a retired entry ends the walk — retirement is FIFO, so everything
   beyond it is out of reach anyway. *)
let match_entry w (e : entry) =
  match e.g with
  | None -> ()
  | Some g ->
      (* cursors: per wire of [e], the oldest entry the walk has reached
         on that wire — a gate touches 1-3 wires, so a small assoc list
         beats a hash table on allocation *)
      let cursors = ref e.prev in
      let advance_past x =
        cursors :=
          List.filter_map
            (fun ((wi, x') as c) ->
              if x' == x then
                match prev_on x wi with
                | Some p -> Some (wi, p)
                | None -> None
              else Some c)
            !cursors
      in
      let steps = ref 0 in
      let rec go () =
        match !cursors with
        | [] -> ()
        | (_, c0) :: rest ->
          let x =
            List.fold_left
              (fun (acc : entry) (_, x) -> if x.seq > acc.seq then x else acc)
              c0 rest
          in
          if x.retired then ()
          else
            match x.g with
            | None ->
                advance_past x;
                go ()
            | Some h ->
                if !steps >= w.lookahead then ()
                else begin
                  incr steps;
                  if Transform.gates_cancel h g then begin
                    w.st.cancelled <- w.st.cancelled + 1;
                    if Gate.has_angle h || Gate.has_angle g then
                      w.angle_sensitive <- true;
                    remove w x;
                    remove w e
                  end
                  else
                    match Gate.fusion h g with
                    | Some f ->
                        (* fusion partners commute with exactly what [h]
                           did: sound to leave the result at the earlier
                           position *)
                        w.st.fused <- w.st.fused + 1;
                        if Gate.has_angle h || Gate.has_angle g then
                          w.angle_sensitive <- true;
                        remove w e;
                        if Gate.is_identity f then remove w x
                        else begin
                          x.g <- Some f;
                          x.diag <- Gate.is_diagonal f;
                          retrigger w x
                        end
                    | None ->
                        (* cheap pre-test first: disjoint support masks
                           prove disjoint wires, and two diagonal gates
                           always commute — both are exactly the first
                           branches of [Gate.commutes], minus its
                           per-call wire-list allocation and walk *)
                        if
                          x.mask land e.mask = 0
                          || (x.diag && e.diag)
                          || Gate.commutes h g
                        then begin
                          advance_past x;
                          go ()
                        end
              end
      in
      go ()

(* The NOT-conjugation sandwich, scanned backward on the X'ed wire
   alone: gates using the wire only
   as a control collect; an older plain X closes the sandwich — flip
   the collected polarities in place, remove both X's. Tried before the
   generic walk because a control on the wire blocks commutation, so
   the walk could never reach the partner. *)
let flip_entry w (e : entry) =
  match e.g with
  | Some g when is_plain_x g -> (
      let wi = List.hd (Gate.targets g) in
      let rec scan cur sandwiched steps =
        match cur with
        | None -> false
        | Some x ->
            if x.retired then false
            else (
              match x.g with
              | None -> scan (prev_on x wi) sandwiched steps
              | Some h ->
                  if steps > w.lookahead then false
                  else if is_plain_x h then begin
                    List.iter
                      (fun x' ->
                        match x'.g with
                        | Some hg ->
                            x'.g <- Some (flip_control_on wi hg)
                        | None -> ())
                      sandwiched;
                    w.st.flipped <- w.st.flipped + 1;
                    remove w x;
                    remove w e;
                    true
                  end
                  else if uses_only_as_control h wi then
                    scan (prev_on x wi) (x :: sandwiched) (steps + 1)
                  else false)
      in
      scan (prev_on e wi) [] 0)
  | _ -> false

let examine w (e : entry) =
  match e.g with
  | None -> ()
  | Some g ->
      if not (is_plain_x g && flip_entry w e) then match_entry w e

let drain w =
  while not (Queue.is_empty w.todo) do
    let e = Queue.pop w.todo in
    e.queued <- false;
    if not e.retired then examine w e
  done

let on_gate ?site w (g : Gate.t) =
  match g with
  | Gate.Comment _ -> ignore (insert w g)
  | g -> (
      w.st.seen <- w.st.seen + 1;
      match cp_step w.cp g with
      | `Drop -> w.st.const_deleted <- w.st.const_deleted + 1
      | `Keep (g, dropped) ->
          w.st.const_controls <- w.st.const_controls + dropped;
          let e = insert w g in
          e.site <- site;
          examine w e;
          drain w)

let flush w =
  while not (Queue.is_empty w.q) do
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
    win_create ~window ~lookahead ~st (fun g site -> Vec.push out (g, site))
  in
  let nsite = ref 0 in
  Array.iter
    (fun g ->
      if Gate.has_angle g then begin
        let i = !nsite in
        incr nsite;
        on_gate ~site:i w g
      end
      else on_gate w g)
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
    on_gate = (fun g -> on_gate w g);
    on_subroutine_enter = inner.Sink.on_subroutine_enter;
    on_subroutine_exit =
      (fun name (sub : Circuit.subroutine) ->
        Circuit.Boxdefs.define defs name sub;
        let h = Circuit.Boxdefs.hash defs name in
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

let default_rounds = 4

(* One window pass interleaves all rules but commits its constant
   propagation and its greedy matches in arrival order; a later pass
   sees the earlier pass's removals (cancel an H·H pair, and the next
   constants pass propagates straight through where the H used to be).
   Stacking stages recovers exactly that: stage k's arrival stream is
   stage k-1's emission stream, so its analyses run over the
   already-rewritten circuit — k rounds of the fixpoint at
   O(k * window) memory. On the paper's BWT and TF circuits 3 stages
   reach the full-window fixpoint. *)
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
