(** The hierarchical resource engine: counts, peak wires and depth over
    the call tree, each box body walked once into a summary — see the
    interface for the shared semantics. *)

module Xkey = struct
  type t = {
    kind : string;
    inverted : bool;
    arity : int;
    csig : (Wire.ty * bool) list;
  }

  let rank ((ty, positive) : Wire.ty * bool) =
    (match ty with Wire.Q -> 0 | Wire.C -> 2) + Bool.to_int positive

  let rec compare_csig a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: a, y :: b ->
        let c = Int.compare (rank x) (rank y) in
        if c <> 0 then c else compare_csig a b

  (* field by field, cheapest first: this is the hot comparison of
     every counted gate *)
  let compare (a : t) (b : t) =
    let c =
      if a.kind == b.kind then 0 else String.compare a.kind b.kind
    in
    if c <> 0 then c
    else
      let c = Bool.compare a.inverted b.inverted in
      if c <> 0 then c
      else
        let c = Int.compare a.arity b.arity in
        if c <> 0 then c else compare_csig a.csig b.csig
end

module Xmap = Map.Make (Xkey)

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)

let q_pos = (Wire.Q, true)
let q_neg = (Wire.Q, false)
let c_pos = (Wire.C, true)
let c_neg = (Wire.C, false)

let signature (c : Gate.control) =
  match (c.Gate.cty, c.Gate.positive) with
  | Wire.Q, true -> q_pos
  | Wire.Q, false -> q_neg
  | Wire.C, true -> c_pos
  | Wire.C, false -> c_neg

let plain kind = { Xkey.kind; inverted = false; arity = 0; csig = [] }

(* Quipper prints the not gate capitalised *)
let not_kind = "Not"

(* [name = "not"], without a call *)
let is_not name =
  String.length name = 3
  && String.unsafe_get name 0 = 'n'
  && String.unsafe_get name 1 = 'o'
  && String.unsafe_get name 2 = 't'

(* A gate's key, field by field, handed to [f x g]: the kind is
   [pre ^ kind], and [ambient] says whether a walk's ambient controls
   join the signature (they do on controllable gates). Comments and
   calls give [none]. *)
let with_key (g : Gate.t) x f none =
  match g with
  | Gate.Gate { name; inv; targets; controls } ->
      f x g "" (if is_not name then not_kind else name) inv targets controls true
  | Gate.Rot { name; inv; targets; controls; _ } -> f x g "" name inv targets controls true
  | Gate.Phase { controls; _ } -> f x g "" "GPhase" false [] controls true
  | Gate.Init { ty = Wire.Q; value; _ } ->
      f x g "" (if value then "Init1" else "Init0") false [] [] false
  | Gate.Init { ty = Wire.C; value; _ } ->
      f x g "" (if value then "CInit1" else "CInit0") false [] [] false
  | Gate.Term { ty = Wire.Q; value; _ } ->
      f x g "" (if value then "Term1" else "Term0") false [] [] false
  | Gate.Term { ty = Wire.C; value; _ } ->
      f x g "" (if value then "CTerm1" else "CTerm0") false [] [] false
  | Gate.Discard { ty = Wire.Q; _ } -> f x g "" "Discard" false [] [] false
  | Gate.Discard { ty = Wire.C; _ } -> f x g "" "CDiscard" false [] [] false
  | Gate.Measure _ -> f x g "" "Meas" false [] [] false
  | Gate.Cgate { name; _ } -> f x g "CGate:" name false [] [] false
  | Gate.Subroutine _ | Gate.Comment _ -> none

let xkey_of_gate (g : Gate.t) : Xkey.t option =
  with_key g ()
    (fun () _ pre kind inverted targets controls _ ->
      Some
        {
          Xkey.kind = (if pre = "" then kind else pre ^ kind);
          inverted;
          arity = List.length targets;
          csig = List.map signature controls;
        })
    None

(* ------------------------------------------------------------------ *)
(* Counts                                                              *)

type counts = (Wide.t * Gate.t) Xmap.t

(* Ambient controls by (quantum, classical) x (positive, negative). *)
type amb = int * int * int * int

let no_amb = (0, 0, 0, 0)

(* One gate key's count before the ambient controls are spelled out:
   the gate's own key and representative, whether it takes ambient
   controls, and how many the calls above it added. [n], [rep] and
   [rank] change only while the walk that made the term merges into it. *)
type term = {
  key : Xkey.t;
  ambient : bool;
  amb : amb;
  mutable n : Wide.t;
  mutable rep : Gate.t;
  mutable rank : int;
}

(* A later term's representative wins a key two terms share. *)
type terms = term array

type t = {
  counts : counts;
  terms : terms;
  in_arity : int;
  out_arity : int;
  peak : int;
  depth : Wide.t;
}

let bump x w g (m : counts) : counts =
  Xmap.update x
    (function None -> Some (w, g) | Some (v, r) -> Some (Wide.add v w, r))
    m

let invert_key (x : Xkey.t) : Xkey.t =
  match x.Xkey.kind with
  | "Init0" -> plain "Term0"
  | "Init1" -> plain "Term1"
  | "Term0" -> plain "Init0"
  | "Term1" -> plain "Init1"
  | "CInit0" -> plain "CTerm0"
  | "CInit1" -> plain "CTerm1"
  | "CTerm0" -> plain "CInit0"
  | "CTerm1" -> plain "CInit1"
  | k when k = "Not" || Gate.self_inverse k -> x
  | _ -> { x with Xkey.inverted = not x.Xkey.inverted }

let invert_rep g = try Gate.inverse g with _ -> g

let invert (c : counts) : counts =
  Xmap.fold (fun x (w, g) acc -> bump (invert_key x) w (invert_rep g) acc) c Xmap.empty

let max_wire_of (g : Gate.t) =
  List.fold_left
    (fun m (e : Wire.endpoint) -> max m e.Wire.wire)
    0 (Gate.wires g)

let ambient_key ((qp, qn, cp, cn) : amb) (x : Xkey.t) =
  let n k s = List.init k (fun _ -> s) in
  {
    x with
    Xkey.csig =
      List.concat [ x.Xkey.csig; n qp q_pos; n qn q_neg; n cp c_pos; n cn c_neg ];
  }

let ambient_rep ((qp, qn, cp, cn) : amb) (g : Gate.t) =
  let next = ref (1 + max_wire_of g) in
  let mk cty positive =
    let w = !next in
    incr next;
    { Gate.cwire = w; cty; positive }
  in
  Gate.add_controls
    (List.concat
       [
         List.init qp (fun _ -> mk Wire.Q true);
         List.init qn (fun _ -> mk Wire.Q false);
         List.init cp (fun _ -> mk Wire.C true);
         List.init cn (fun _ -> mk Wire.C false);
       ])
    g

let to_int what w =
  match Wide.to_int_opt w with
  | Some n -> n
  | None ->
      Errors.invalidf
        "%s = %s does not fit a native int; run with --estimate for exact \
         figures"
        what (Wide.to_string w)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)

let add_amb ((qp, qn, cp, cn) : amb) ((qp', qn', cp', cn') : amb) : amb =
  (qp + qp', qn + qn', cp + cp', cn + cn')

(* [n] plus how many of [cs] have that type and sign *)
let rec count cty positive n = function
  | [] -> n
  | (c : Gate.control) :: cs ->
      count cty positive (if c.Gate.cty == cty && c.Gate.positive == positive then n + 1 else n) cs

(* the tally of a control list *)
let amb_of cs : amb =
  (count Wire.Q true 0 cs, count Wire.Q false 0 cs, count Wire.C true 0 cs, count Wire.C false 0 cs)

(* the last term of a key wins, so only its representative is built *)
let view (ts : terms) : counts =
  let m = ref Xmap.empty in
  for i = Array.length ts - 1 downto 0 do
    let t = ts.(i) in
    let shifted = t.ambient && t.amb <> no_amb in
    m :=
      Xmap.update
        (if shifted then ambient_key t.amb t.key else t.key)
        (function
          | None -> Some (t.n, if shifted then ambient_rep t.amb t.rep else t.rep)
          | Some (v, r) -> Some (Wide.add v t.n, r))
        !m
  done;
  !m

let term key ambient amb n rep = { key; ambient; amb; n; rep; rank = 0 }

let flat (c : counts) : terms =
  Array.of_list
    (Xmap.fold
       (fun key (n, rep) acc ->
         term key (Gate.controllability rep = Gate.Controllable) no_amb n rep :: acc)
       c [])

let append = Array.append
let scale k = Array.map (fun t -> { t with n = Wide.mul_int t.n k })
let reverse = Array.map (fun t -> { t with key = invert_key t.key; rep = invert_rep t.rep })
let control amb = Array.map (fun t -> if t.ambient then { t with amb = add_amb t.amb amb } else t)

(* ------------------------------------------------------------------ *)
(* Count cells                                                         *)

(* A walk's running count of one of its own gates' keys, with the
   first such gate as representative. *)
type cell = {
  ckey : Xkey.t;
  hash : int;
  shape : int;
  cambient : bool;
  mutable cn : int;
  crep : Gate.t;
}

let vacant =
  { ckey = plain ""; hash = 0; shape = 0; cambient = false; cn = 0;
    crep = Gate.Comment { text = ""; labels = [] } }

(* Open addressing with linear probing over a power-of-two array of
   cells, [vacant] marking a free slot; it doubles at half load and
   never deletes. *)
type table = { mutable cells : cell array; mutable size : int }

(* A key's [shape] packs everything but its kind into one int: a
   leading 1, each control's rank in two bits, [arity] in eight,
   [inverted] and [ambient] in one each; -1 when that does not fit (more
   than 25 controls or 255 targets), and only then do keys compare field
   by field. A gate computes its key's shape and hash without the key
   being built. *)
let push s r = if s < 0 || s >= 1 lsl 50 then -1 else (s lsl 2) lor r

let close s inv arity ambient =
  if s < 0 || arity > 255 then -1
  else (((((s lsl 8) lor arity) lsl 1) lor Bool.to_int inv) lsl 1) lor Bool.to_int ambient

let rank_of (c : Gate.control) =
  (match c.Gate.cty with Wire.Q -> 0 | Wire.C -> 2) + Bool.to_int c.Gate.positive

let rec push_controls s = function
  | [] -> s
  | c :: cs -> push_controls (push s (rank_of c)) cs

(* a polynomial hash of the kind's characters and the shape *)
let mix h x = (h lsl 5) + h + x
let home h (cells : cell array) = (h * 0x2545F4914F6CDD1D) lsr 17 land (Array.length cells - 1)

(* [x = pre ^ kind], without building the right-hand side *)
let rec same_from x off s i =
  i >= String.length s
  || (String.unsafe_get x (off + i) = String.unsafe_get s i && same_from x off s (i + 1))

let kind_is x pre kind =
  let lp = String.length pre in
  String.length x = lp + String.length kind
  && (if lp = 0 then x == kind || same_from x 0 kind 0
      else same_from x 0 pre 0 && same_from x lp kind 0)

(* [csig] is the signature of [controls] *)
let rec csig_is csig controls =
  match (csig, controls) with
  | [], [] -> true
  | s :: r, c :: cs -> Xkey.rank s = rank_of c && csig_is r cs
  | _ -> false

(* the slot of the cell whose key a gate's fields spell, or the vacant
   slot that ends its probe run *)
let rec slot_of_gate cells i h shape pre kind inv targets controls ambient =
  let c = cells.(i) in
  if
    c == vacant
    || c.hash = h && c.shape = shape
       && kind_is c.ckey.Xkey.kind pre kind
       && (shape >= 0
          || c.ckey.Xkey.inverted = inv && c.cambient = ambient
             && List.compare_length_with targets c.ckey.Xkey.arity = 0
             && csig_is c.ckey.Xkey.csig controls)
  then i
  else
    slot_of_gate cells ((i + 1) land (Array.length cells - 1)) h shape pre kind inv
      targets controls ambient

let rec free cells i =
  if cells.(i) == vacant then i else free cells ((i + 1) land (Array.length cells - 1))

let insert t i c =
  t.cells.(i) <- c;
  t.size <- t.size + 1;
  if 2 * t.size > Array.length t.cells then begin
    let old = t.cells in
    t.cells <- Array.make (2 * Array.length old) vacant;
    Array.iter
      (fun c -> if c != vacant then t.cells.(free t.cells (home c.hash t.cells)) <- c)
      old
  end

(* ------------------------------------------------------------------ *)
(* Depth clocks                                                        *)

(* Clocks live in a native-int map below [limit]; a clock at or above
   it reads [limit] there and is kept exactly in the walk's side table.
   Only box calls get there (flat gates would take 2^61 steps), and
   below [limit] one native step plus one box depth cannot overflow. *)
let limit = 1 lsl 61

(* What a box's one walk leaves: its terms, its peak from its inputs,
   and its depth, exact and, below [limit], native too (else [-1]). *)
type summary = { terms : terms; speak : int; dn : int; dw : Wide.t }

(* A box, interned the first time a walk calls its name. *)
type box = { id : int; summary : summary Lazy.t }

type env = { find : string -> Circuit.subroutine; boxes : (string, box) Hashtbl.t }

let env find = { find; boxes = Hashtbl.create 16 }

(* A walk's calls of one box in one direction under one control tally:
   how many, and the sequence number of the last one. *)
type calls = { box : box; amb : amb; inv : bool; mutable calls : int; mutable last : int }

(* One circuit's walk: the parts it was asked for, advanced gate by
   gate. *)
type walk = {
  env : env;
  do_counts : bool;
  do_peak : bool;
  do_depth : bool;
  counts : table;
  mutable own : cell list;  (** latest key first *)
  pending : (int, calls list) Hashtbl.t;  (** by box id *)
  mutable seq : int;
  mutable live : int;
  mutable peak : int;
  clock : Wire.Itbl.t;  (** absent: 0 *)
  big : (Wire.t, Wide.t) Hashtbl.t;  (** the clocks at or above [limit] *)
  mutable finish : int;  (** the latest finish below [limit] *)
  mutable finish_big : Wide.t;  (** the latest at or above, or zero *)
}

(* a clock table for [n] live wires: a wide box's walk skips the
   doubling chain through the small sizes *)
let clocks n =
  let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
  Wire.Itbl.create (pow2 64)

let walk env ~counts ~peak ~depth ~live =
  {
    env;
    do_counts = counts;
    do_peak = peak;
    do_depth = depth;
    counts = { cells = Array.make (if counts then 16 else 1) vacant; size = 0 };
    own = [];
    pending = Hashtbl.create (if counts then 16 else 1);
    seq = 0;
    live;
    peak = live;
    clock = (if depth then clocks live else Wire.Itbl.create 2);
    big = Hashtbl.create 1;
    finish = 0;
    finish_big = Wide.zero;
  }

let depth_of w = if Wide.is_zero w.finish_big then Wide.of_int w.finish else w.finish_big

let time w x =
  let v = Wire.Itbl.find w.clock x in
  if v < 0 then 0 else v

let rec latest w t = function
  | [] -> t
  | x :: xs ->
      let v = time w x in
      latest w (if v > t then v else t) xs

let rec latest_control w t = function
  | [] -> t
  | (c : Gate.control) :: cs ->
      let v = time w c.Gate.cwire in
      latest_control w (if v > t then v else t) cs

let rec set w t = function
  | [] -> ()
  | x :: xs ->
      Wire.Itbl.replace w.clock x t;
      set w t xs

let rec set_control w t = function
  | [] -> ()
  | (c : Gate.control) :: cs ->
      Wire.Itbl.replace w.clock c.Gate.cwire t;
      set_control w t cs

let finished w t = if t > w.finish then w.finish <- t

(* The exact path, taken when a native clock would reach [limit]: every
   wire of [xs], [ys] and [cs] finishes [dt] after the latest of them. *)
let advance_big w xs ys cs dt =
  let exact x = if time w x >= limit then Hashtbl.find w.big x else Wide.of_int (time w x) in
  let wires = xs @ ys @ List.map (fun (c : Gate.control) -> c.Gate.cwire) cs in
  let t = Wide.add (List.fold_left (fun t x -> Wide.max_ t (exact x)) Wide.zero wires) dt in
  List.iter
    (fun x ->
      Wire.Itbl.replace w.clock x limit;
      Hashtbl.replace w.big x t)
    wires;
  if Wide.compare t w.finish_big > 0 then w.finish_big <- t

(* one step on a gate's targets and controls *)
let advance w xs cs =
  let t = latest_control w (latest w 0 xs) cs + 1 in
  if t < limit then begin
    set w t xs;
    set_control w t cs;
    finished w t
  end
  else advance_big w xs [] cs Wide.one

let advance1 w x =
  let t = time w x + 1 in
  if t < limit then begin
    Wire.Itbl.replace w.clock x t;
    finished w t
  end
  else advance_big w [ x ] [] [] Wide.one

(* ------------------------------------------------------------------ *)
(* The step                                                            *)

(* One more gate of the key [with_key] spells: found by its fields, so
   only a key's first gate builds the key. *)
let tally w g pre kind inv targets controls ambient =
  let shape = close (push_controls 1 controls) inv (List.length targets) ambient in
  (* the hash of [pre ^ kind] and the shape, inline: this is the hot path *)
  let h = ref 0 in
  for i = 0 to String.length pre - 1 do
    h := mix !h (Char.code (String.unsafe_get pre i))
  done;
  for i = 0 to String.length kind - 1 do
    h := mix !h (Char.code (String.unsafe_get kind i))
  done;
  let h = mix !h shape in
  let t = w.counts in
  let i = slot_of_gate t.cells (home h t.cells) h shape pre kind inv targets controls ambient in
  let c = t.cells.(i) in
  if c != vacant then c.cn <- c.cn + 1
  else
    match xkey_of_gate g with
    | None -> ()
    | Some ckey ->
        let c = { ckey; hash = h; shape; cambient = ambient; cn = 1; crep = g } in
        insert t i c;
        w.own <- c :: w.own

(* the calls of [ks] in direction [inv] whose tally is that of [cs] *)
let rec calls_of inv cs = function
  | [] -> raise_notrace Not_found
  | k :: ks ->
      let qp, qn, cp, cn = k.amb in
      if
        k.inv = inv
        && count Wire.Q true 0 cs = qp && count Wire.Q false 0 cs = qn
        && count Wire.C true 0 cs = cp && count Wire.C false 0 cs = cn
      then k
      else calls_of inv cs ks

(* a call costs O(1): its box's terms are added once per entry, times
   its calls, when the walk is read *)
let call w b inv controls =
  w.seq <- w.seq + 1;
  let ks = try Hashtbl.find w.pending b.id with Not_found -> [] in
  match calls_of inv controls ks with
  | k ->
      k.calls <- k.calls + 1;
      k.last <- w.seq
  | exception Not_found ->
      Hashtbl.replace w.pending b.id ({ box = b; amb = amb_of controls; inv; calls = 1; last = w.seq } :: ks)

let reach w (g : Gate.t) =
  match g with
  | Gate.Init _ | Gate.Cgate _ ->
      w.live <- w.live + 1;
      if w.live > w.peak then w.peak <- w.live
  | Gate.Term _ | Gate.Discard _ -> w.live <- w.live - 1
  | _ -> ()

let tick w (g : Gate.t) =
  match g with
  | Gate.Gate { targets; controls; _ } | Gate.Rot { targets; controls; _ } ->
      advance w targets controls
  | Gate.Phase { controls; _ } -> advance w [] controls
  | Gate.Init { wire; _ } | Gate.Measure { wire } -> advance1 w wire
  | Gate.Term { wire; _ } | Gate.Discard { wire; _ } ->
      (* the wire is dead: only the walk's finish keeps its time *)
      let t = time w wire + 1 in
      if t < limit then finished w t
      else begin
        advance_big w [ wire ] [] [] Wide.one;
        Hashtbl.remove w.big wire
      end;
      Wire.Itbl.remove w.clock wire
  | Gate.Cgate { out; ins; _ } ->
      let t = latest w (time w out) ins + 1 in
      if t < limit then begin
        Wire.Itbl.replace w.clock out t;
        set w t ins;
        finished w t
      end
      else advance_big w (out :: ins) [] [] Wide.one
  | Gate.Subroutine _ | Gate.Comment _ -> ()

(* Terms that agree in key, ambient flag and tally, merged in place. *)
module Merge = Hashtbl.Make (struct
  type t = term

  let equal a b = a.ambient = b.ambient && a.amb = b.amb && Xkey.compare a.key b.key = 0
  let hash t = Hashtbl.hash t.key + (31 * Hashtbl.hash t.amb) + Bool.to_int t.ambient
end)

(* The walk's terms: its own keys, then each box it called, in order of
   its last call, so that, as if each call had been added as it came,
   the last call's representatives win. Terms that agree in key,
   ambient flag and tally merge here; the keys they spell under ambient
   controls merge only when read. *)
let terms_of w : terms =
  let merged = Merge.create 16 and built = ref [] and rank = ref 0 in
  let add t =
    incr rank;
    match Merge.find merged t with
    | u ->
        u.n <- Wide.add u.n t.n;
        u.rep <- t.rep;
        u.rank <- !rank
    | exception Not_found ->
        t.rank <- !rank;
        Merge.add merged t t;
        built := t :: !built
  in
  List.iter (fun c -> add (term c.ckey c.cambient no_amb (Wide.of_int c.cn) c.crep)) w.own;
  List.iter
    (fun k ->
          Array.iter
            (fun t ->
              add
                (term
                   (if k.inv then invert_key t.key else t.key)
                   t.ambient
                   (if not t.ambient then no_amb else if k.amb = no_amb then t.amb else add_amb t.amb k.amb)
                   (if k.calls = 1 then t.n else Wide.mul_int t.n k.calls)
                   (if k.inv then invert_rep t.rep else t.rep)))
            (Lazy.force k.box.summary).terms)
    (List.sort
       (fun a b -> Int.compare a.last b.last)
       (Hashtbl.fold (fun _ ks acc -> List.rev_append ks acc) w.pending []));
  let ts = Array.of_list !built in
  Array.sort (fun a b -> Int.compare a.rank b.rank) ts;
  ts

(* What a walk leaves: its terms, peak and depth. *)
let summarize w =
  let dw = depth_of w in
  {
    terms = (if w.do_counts then terms_of w else [||]);
    speak = (if w.do_peak then w.peak else 0);
    dn = (match Wide.to_int_opt dw with Some n when n < limit -> n | _ -> -1);
    dw;
  }

let vector s ~in_arity ~out_arity =
  { counts = view s.terms; terms = s.terms; in_arity; out_arity; peak = s.speak; depth = s.dw }

let rec step w (g : Gate.t) =
  match g with
  | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
      let b = box_of w.env name in
      let s = Lazy.force b.summary in
      if w.do_counts then call w b inv controls;
      if w.do_peak then begin
        let base = w.live - List.length inputs in
        w.live <- base + List.length outputs;
        w.peak <- Int.max w.peak (Int.max (base + s.speak) w.live)
      end;
      if w.do_depth then begin
        (* a call advances every wire it touches by the body's depth *)
        let t = latest_control w (latest w (latest w 0 inputs) outputs) controls + s.dn in
        if s.dn >= 0 && t < limit then begin
          set w t inputs;
          set w t outputs;
          set_control w t controls;
          finished w t
        end
        else advance_big w inputs outputs controls s.dw
      end
  | g ->
      if w.do_counts then with_key g w tally ();
      if w.do_peak then reach w g;
      if w.do_depth then tick w g

(* a box's summary comes from one walk of its body, the first time it
   is needed *)
and box_of env name =
  match Hashtbl.find env.boxes name with
  | b -> b
  | exception Not_found ->
      let summary =
        lazy
          (let c = (env.find name).Circuit.circ in
           let w = walk env ~counts:true ~peak:true ~depth:true ~live:(List.length c.Circuit.inputs) in
           Array.iter (step w) c.Circuit.gates;
           summarize w)
      in
      let b = { id = Hashtbl.length env.boxes; summary } in
      Hashtbl.add env.boxes name b;
      b

(* a box's vector, read from its summary *)
let box_view env name =
  let c = (env.find name).Circuit.circ in
  ( name,
    vector
      (Lazy.force (box_of env name).summary)
      ~in_arity:(List.length c.Circuit.inputs)
      ~out_arity:(List.length c.Circuit.outputs) )

let run env ~counts ~peak ~depth (b : Circuit.b) =
  let main = b.Circuit.main in
  let w = walk env ~counts ~peak ~depth ~live:(List.length main.Circuit.inputs) in
  Array.iter (step w) main.Circuit.gates;
  vector (summarize w)
    ~in_arity:(List.length main.Circuit.inputs)
    ~out_arity:(List.length main.Circuit.outputs)

let of_circuit ?(counts = true) ?(peak = true) ?(depth = true) (b : Circuit.b) =
  run (env (Circuit.find_sub b)) ~counts ~peak ~depth b

let report (b : Circuit.b) =
  let env = env (Circuit.find_sub b) in
  let whole = run env ~counts:true ~peak:true ~depth:true b in
  (whole, List.map (box_view env) b.Circuit.sub_order)

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

type stream = {
  defs : Circuit.Boxdefs.t;
  main : walk;
  mutable in_arity : int;
  mutable order : string list;  (** definition order, latest first *)
}

let stream ?(counts = true) ?(peak = true) ?(depth = true) () =
  let defs = Circuit.Boxdefs.create () in
  let main = walk (env (Circuit.Boxdefs.find defs)) ~counts ~peak ~depth ~live:0 in
  { defs; main; in_arity = 0; order = [] }

let inputs s (es : Wire.endpoint list) =
  let n = List.length es in
  let w = s.main in
  s.in_arity <- s.in_arity + n;
  w.live <- w.live + n;
  if w.live > w.peak then w.peak <- w.live

let define s name sub =
  if not (List.mem name s.order) then s.order <- name :: s.order;
  Circuit.Boxdefs.define s.defs name sub

let gate s g = step s.main g
let finish s ~outputs = vector (summarize s.main) ~in_arity:s.in_arity ~out_arity:outputs
let boxes s = List.rev_map (box_view s.main.env) s.order
