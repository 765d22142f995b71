(** The hierarchical resource engine: counts, peak wires and depth over
    the call tree, walked once per box — see the interface for the
    shared semantics. *)

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

type t = {
  counts : counts;
  in_arity : int;
  out_arity : int;
  peak : int;
  depth : Wide.t;
}

let bump x w g (m : counts) : counts =
  Xmap.update x
    (function None -> Some (w, g) | Some (v, r) -> Some (Wide.add v w, r))
    m

let merge (sub : counts) (acc : counts) : counts =
  Xmap.union (fun _ (w, g) (v, _) -> Some (Wide.add v w, g)) sub acc

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

let invert (c : counts) : counts =
  Xmap.fold
    (fun x (w, g) acc ->
      bump (invert_key x) w (try Gate.inverse g with _ -> g) acc)
    c Xmap.empty

let max_wire_of (g : Gate.t) =
  List.fold_left
    (fun m (e : Wire.endpoint) -> max m e.Wire.wire)
    0 (Gate.wires g)

(* Ambient controls by (quantum, classical) x (positive, negative). *)
type amb = int * int * int * int

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
(* The walk                                                            *)

let no_amb = (0, 0, 0, 0)

let add_amb ((qp, qn, cp, cn) : amb) (cs : Gate.control list) : amb =
  List.fold_left
    (fun (qp, qn, cp, cn) (c : Gate.control) ->
      match (c.Gate.cty, c.Gate.positive) with
      | Wire.Q, true -> (qp + 1, qn, cp, cn)
      | Wire.Q, false -> (qp, qn + 1, cp, cn)
      | Wire.C, true -> (qp, qn, cp + 1, cn)
      | Wire.C, false -> (qp, qn, cp, cn + 1))
    (qp, qn, cp, cn) cs

(* Per-box results, memoized: counts per ambient signature and call
   direction, peak and depth per name (controls change neither). A
   depth is kept exact and, when it is below [limit], native too (else
   [-1]). *)
type env = {
  find : string -> Circuit.subroutine;
  cmemo : (string * amb * bool, counts) Hashtbl.t;
  pmemo : (string, int) Hashtbl.t;
  dmemo : (string, int * Wide.t) Hashtbl.t;
}

let env find =
  {
    find;
    cmemo = Hashtbl.create 16;
    pmemo = Hashtbl.create 16;
    dmemo = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Count cells                                                         *)

(* A walk's running count of one key: the walk's own gates in a native
   int, box merges in [merged], the only exact part. *)
type cell = {
  key : Xkey.t;
  hash : int;
  shape : int;
  mutable n : int;
  mutable merged : Wide.t;
  mutable rep : Gate.t;
}

let vacant =
  { key = plain ""; hash = 0; shape = 0; n = 0; merged = Wide.zero;
    rep = Gate.Comment { text = ""; labels = [] } }

(* Open addressing with linear probing over a power-of-two array of
   cells, [vacant] marking a free slot; it doubles at half load and
   never deletes. *)
type table = { mutable cells : cell array; mutable size : int }

(* A key's [shape] packs everything but its kind into one int: a
   leading 1, each control's rank in two bits, [arity] in eight and
   [inverted] in one; -1 when that does not fit (more than 25 controls
   or 255 targets), and only then do keys compare field by field. A
   gate computes its key's shape and hash without the key being built. *)
let push s r = if s < 0 || s >= 1 lsl 50 then -1 else (s lsl 2) lor r

let close s inv arity =
  if s < 0 || arity > 255 then -1 else (((s lsl 8) lor arity) lsl 1) lor Bool.to_int inv

let rank_of (c : Gate.control) =
  (match c.Gate.cty with Wire.Q -> 0 | Wire.C -> 2) + Bool.to_int c.Gate.positive

let rec push_controls s = function
  | [] -> s
  | c :: cs -> push_controls (push s (rank_of c)) cs

let rec push_copies s rank k = if k = 0 then s else push_copies (push s rank) rank (k - 1)

(* the ambient tail [ambient_key] appends: ranks 1, 0, 3, 2 *)
let push_tail s qp qn cp cn =
  push_copies (push_copies (push_copies (push_copies s 1 qp) 0 qn) 3 cp) 2 cn

let shape_of_key (x : Xkey.t) =
  close
    (List.fold_left (fun s c -> push s (Xkey.rank c)) 1 x.Xkey.csig)
    x.Xkey.inverted x.Xkey.arity

(* a polynomial hash of the kind's characters and the shape *)
let mix h x = (h lsl 5) + h + x

let hash_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let hash_key (x : Xkey.t) shape = mix (hash_string 0 x.Xkey.kind) shape
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

(* [csig] is the ranks of [qp], [qn], [cp], [cn] ambient controls *)
let rec tail_is csig qp qn cp cn =
  match csig with
  | [] -> qp = 0 && qn = 0 && cp = 0 && cn = 0
  | s :: r ->
      let k = Xkey.rank s in
      if qp > 0 then k = 1 && tail_is r (qp - 1) qn cp cn
      else if qn > 0 then k = 0 && tail_is r 0 (qn - 1) cp cn
      else if cp > 0 then k = 3 && tail_is r 0 0 (cp - 1) cn
      else cn > 0 && k = 2 && tail_is r 0 0 0 (cn - 1)

(* [csig] is the signature of [controls] followed by the ambient tail *)
let rec csig_is csig controls qp qn cp cn =
  match (csig, controls) with
  | _, [] -> tail_is csig qp qn cp cn
  | [], _ :: _ -> false
  | s :: r, c :: cs -> Xkey.rank s = rank_of c && csig_is r cs qp qn cp cn

(* the slot of the cell whose key a gate's fields spell, or the vacant
   slot that ends its probe run *)
let rec slot_of_gate cells i h shape pre kind inv targets controls qp qn cp cn =
  let c = cells.(i) in
  if
    c == vacant
    || c.hash = h && c.shape = shape
       && kind_is c.key.Xkey.kind pre kind
       && (shape >= 0
          || c.key.Xkey.inverted = inv
             && List.compare_length_with targets c.key.Xkey.arity = 0
             && csig_is c.key.Xkey.csig controls qp qn cp cn)
  then i
  else
    slot_of_gate cells ((i + 1) land (Array.length cells - 1)) h shape pre kind inv
      targets controls qp qn cp cn

let rec slot_of_key cells i h x =
  let c = cells.(i) in
  if c == vacant || (c.hash = h && Xkey.compare c.key x = 0) then i
  else slot_of_key cells ((i + 1) land (Array.length cells - 1)) h x

let insert t i c =
  t.cells.(i) <- c;
  t.size <- t.size + 1;
  if 2 * t.size > Array.length t.cells then begin
    let old = t.cells in
    t.cells <- Array.make (2 * Array.length old) vacant;
    Array.iter
      (fun c ->
        if c != vacant then
          t.cells.(slot_of_key t.cells (home c.hash t.cells) c.hash c.key) <- c)
      old
  end

(* ------------------------------------------------------------------ *)
(* Depth clocks                                                        *)

(* Clocks live in a native-int map below [limit]; a clock at or above
   it reads [limit] there and is kept exactly in the walk's side table.
   Only box calls get there (flat gates would take 2^61 steps), and
   below [limit] one native step plus one box depth cannot overflow. *)
let limit = 1 lsl 61

(* A walk's calls of one box (name, ambient signature, direction): how
   many, and the sequence number of the last one. *)
type calls = { mutable calls : int; mutable last : int }

(* One circuit's walk: the parts it was asked for, advanced gate by
   gate. *)
type walk = {
  env : env;
  amb : amb;
  do_counts : bool;
  do_peak : bool;
  do_depth : bool;
  counts : table;
  pending : (string * amb * bool, calls) Hashtbl.t;
  mutable seq : int;
  mutable live : int;
  mutable peak : int;
  clock : Wire.Itbl.t;  (** absent: 0 *)
  big : (Wire.t, Wide.t) Hashtbl.t;  (** the clocks at or above [limit] *)
  mutable finish : int;  (** the latest finish below [limit] *)
  mutable finish_big : Wide.t;  (** the latest at or above, or zero *)
}

let walk env ~amb ~counts ~peak ~depth ~live =
  {
    env;
    amb;
    do_counts = counts;
    do_peak = peak;
    do_depth = depth;
    counts = { cells = Array.make (if counts then 16 else 1) vacant; size = 0 };
    pending = Hashtbl.create (if counts then 16 else 1);
    seq = 0;
    live;
    peak = live;
    clock = Wire.Itbl.create (if depth then 64 else 2);
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

let rec step w g =
  if w.do_counts then count w g;
  if w.do_peak then reach w g;
  if w.do_depth then tick w g

(* One more gate of the key [with_key] spells, plus the walk's ambient
   tail if [ambient]: found by its fields, so only a key's first gate
   builds the key and its representative. *)
and tally w g pre kind inv targets controls ambient =
  let ((qp, qn, cp, cn) as amb) = if ambient then w.amb else no_amb in
  let s = push_controls 1 controls in
  let s = if qp lor qn lor cp lor cn = 0 then s else push_tail s qp qn cp cn in
  let shape = close s inv (List.length targets) in
  (* [hash_string] of [pre ^ kind], inline: this is the hot path *)
  let h = ref 0 in
  for i = 0 to String.length pre - 1 do
    h := mix !h (Char.code (String.unsafe_get pre i))
  done;
  for i = 0 to String.length kind - 1 do
    h := mix !h (Char.code (String.unsafe_get kind i))
  done;
  let h = mix !h shape in
  let t = w.counts in
  let i =
    slot_of_gate t.cells (home h t.cells) h shape pre kind inv targets controls qp qn cp cn
  in
  let c = t.cells.(i) in
  if c != vacant then c.n <- c.n + 1
  else
    match xkey_of_gate g with
    | None -> ()
    | Some x ->
        let key, rep =
          if qp + qn + cp + cn = 0 then (x, g) else (ambient_key amb x, ambient_rep amb g)
        in
        insert t i { key; hash = h; shape; n = 1; merged = Wide.zero; rep }

and count w (g : Gate.t) =
  match g with
  | Gate.Subroutine { name; inv; controls; _ } -> (
      (* a call costs O(1): its body's counts are added once per
         distinct box, times its calls, when the walk is read *)
      let key = (name, add_amb w.amb controls, inv) in
      w.seq <- w.seq + 1;
      match Hashtbl.find_opt w.pending key with
      | Some p ->
          p.calls <- p.calls + 1;
          p.last <- w.seq
      | None ->
          let name, amb, inv = key in
          ignore (sub_counts w.env name amb inv);
          Hashtbl.add w.pending key { calls = 1; last = w.seq })
  | g -> with_key g w tally ()

and reach w (g : Gate.t) =
  match g with
  | Gate.Init _ | Gate.Cgate _ ->
      w.live <- w.live + 1;
      if w.live > w.peak then w.peak <- w.live
  | Gate.Term _ | Gate.Discard _ -> w.live <- w.live - 1
  | Gate.Subroutine { name; inputs; outputs; _ } ->
      let base = w.live - List.length inputs in
      let reach = base + sub_peak w.env name in
      w.live <- base + List.length outputs;
      w.peak <- max w.peak (max reach w.live)
  | _ -> ()

and tick w (g : Gate.t) =
  match g with
  | Gate.Comment _ -> ()
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
  | Gate.Subroutine { name; inputs; outputs; controls; _ } ->
      (* a call advances every wire it touches by the body's depth *)
      let n, d = sub_depth w.env name in
      let t = latest_control w (latest w (latest w 0 inputs) outputs) controls + n in
      if n >= 0 && t < limit then begin
        set w t inputs;
        set w t outputs;
        set_control w t controls;
        finished w t
      end
      else advance_big w inputs outputs controls d

and counts_of w =
  (* in order of each box's last call, so that, as if each call had been
     added as it came, the last call's representatives win *)
  let boxes =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (Hashtbl.fold (fun key p acc -> (p.last, key, p.calls) :: acc) w.pending [])
  in
  let t = w.counts in
  List.iter
    (fun (_, (name, amb, inv), calls) ->
      Xmap.iter
        (fun x (n, rep) ->
          let n = Wide.mul_int n calls in
          let shape = shape_of_key x in
          let h = hash_key x shape in
          let i = slot_of_key t.cells (home h t.cells) h x in
          let c = t.cells.(i) in
          if c != vacant then begin
            c.merged <- Wide.add c.merged n;
            c.rep <- rep
          end
          else insert t i { key = x; hash = h; shape; n = 0; merged = n; rep })
        (sub_counts w.env name amb inv))
    boxes;
  Hashtbl.reset w.pending;
  Array.fold_left
    (fun m c ->
      if c == vacant then m
      else Xmap.add c.key (Wide.add (Wide.of_int c.n) c.merged, c.rep) m)
    Xmap.empty t.cells

and run env ~amb ~counts ~peak ~depth (c : Circuit.t) =
  let w = walk env ~amb ~counts ~peak ~depth ~live:(List.length c.Circuit.inputs) in
  Array.iter (step w) c.Circuit.gates;
  w

and sub_counts env name amb inv =
  let key = (name, amb, inv) in
  match Hashtbl.find_opt env.cmemo key with
  | Some c -> c
  | None ->
      let c =
        if inv then invert (sub_counts env name amb false)
        else
          counts_of
            (run env ~amb ~counts:true ~peak:false ~depth:false
               (env.find name).Circuit.circ)
      in
      Hashtbl.replace env.cmemo key c;
      c

and sub_peak env name =
  match Hashtbl.find_opt env.pmemo name with
  | Some p -> p
  | None ->
      let p =
        (run env ~amb:no_amb ~counts:false ~peak:true ~depth:false
           (env.find name).Circuit.circ)
          .peak
      in
      Hashtbl.replace env.pmemo name p;
      p

and sub_depth env name =
  match Hashtbl.find env.dmemo name with
  | nd -> nd
  | exception Not_found ->
      let d =
        depth_of
          (run env ~amb:no_amb ~counts:false ~peak:false ~depth:true
             (env.find name).Circuit.circ)
      in
      let n = match Wide.to_int_opt d with Some n when n < limit -> n | _ -> -1 in
      Hashtbl.replace env.dmemo name (n, d);
      (n, d)

let result w ~in_arity ~out_arity =
  {
    counts = counts_of w;
    in_arity;
    out_arity;
    peak = (if w.do_peak then w.peak else 0);
    depth = depth_of w;
  }

let of_circuit ?(counts = true) ?(peak = true) ?(depth = true) (b : Circuit.b) =
  let main = b.Circuit.main in
  let w =
    run (env (Circuit.find_sub b)) ~amb:no_amb ~counts ~peak ~depth main
  in
  result w
    ~in_arity:(List.length main.Circuit.inputs)
    ~out_arity:(List.length main.Circuit.outputs)

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

type stream = { defs : Circuit.Boxdefs.t; main : walk; mutable in_arity : int }

let stream ?(counts = true) ?(peak = true) ?(depth = true) () =
  let defs = Circuit.Boxdefs.create () in
  let main =
    walk (env (Circuit.Boxdefs.find defs)) ~amb:no_amb ~counts ~peak ~depth ~live:0
  in
  { defs; main; in_arity = 0 }

let inputs s (es : Wire.endpoint list) =
  let n = List.length es in
  let w = s.main in
  s.in_arity <- s.in_arity + n;
  w.live <- w.live + n;
  if w.live > w.peak then w.peak <- w.live

let define s name sub = Circuit.Boxdefs.define s.defs name sub
let gate s g = step s.main g
let finish s ~outputs = result s.main ~in_arity:s.in_arity ~out_arity:outputs
