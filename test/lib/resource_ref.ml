(* Reference model of the resource engine's walk as it was before the
   per-gate step stopped allocating: counts in a [Resource.Xmap] of
   cells holding [Wide] counts, found by building each gate's key, and
   depth clocks as [Wide] values in a polymorphic hash table. The
   engine must agree with it on every circuit (counts, representative
   gates, peak and depth); [test_resource] checks that on the corpus
   and on random boxed programs.

   The key functions ([xkey_of_gate], [ambient_key], [ambient_rep],
   [invert]) are the library's: only the walk is modelled. *)

open Quipper
open Resource

type amb = int * int * int * int

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
   direction, peak and depth per name (controls change neither). *)
type env = {
  find : string -> Circuit.subroutine;
  cmemo : (string * amb * bool, counts) Hashtbl.t;
  pmemo : (string, int) Hashtbl.t;
  dmemo : (string, Wide.t) Hashtbl.t;
}

let env find =
  {
    find;
    cmemo = Hashtbl.create 16;
    pmemo = Hashtbl.create 16;
    dmemo = Hashtbl.create 16;
  }

(* Per-wire clocks. Wire ids are small consecutive ints, so they are
   their own hash. *)
module Clock = Hashtbl.Make (struct
  type t = Wire.t

  let equal = Int.equal
  let hash (x : t) = x land max_int
end)

(* A walk's running count of one key: mutated in place, so counting a
   gate whose key was seen before allocates nothing in the map. *)
type cell = { mutable n : Wide.t; mutable rep : Gate.t }

(* A walk's calls of one box (name, ambient signature, direction): how
   many, and the sequence number of the last one. *)
type calls = { mutable calls : int; mutable last : int }

(* One circuit's walk: the parts it was asked for, advanced gate by
   gate. *)
type walk = {
  env : env;
  amb : amb;
  ambient : bool;  (** [amb <> no_amb] *)
  do_counts : bool;
  do_peak : bool;
  do_depth : bool;
  mutable cells : cell Xmap.t;
  pending : (string * amb * bool, calls) Hashtbl.t;
  mutable seq : int;
  mutable live : int;
  mutable peak : int;
  clock : Wide.t Clock.t;
  mutable depth : Wide.t;
}

let walk env ~amb ~counts ~peak ~depth ~live =
  {
    env;
    amb;
    ambient = amb <> no_amb;
    do_counts = counts;
    do_peak = peak;
    do_depth = depth;
    cells = Xmap.empty;
    pending = Hashtbl.create (if counts then 16 else 1);
    seq = 0;
    live;
    peak = live;
    clock = Clock.create (if depth then 64 else 1);
    depth = Wide.zero;
  }

let time w x =
  match Clock.find_opt w.clock x with Some t -> t | None -> Wide.zero

let rec latest w t = function
  | [] -> t
  | x :: xs -> latest w (Wide.max_ t (time w x)) xs

let rec latest_control w t = function
  | [] -> t
  | (c : Gate.control) :: cs ->
      latest_control w (Wide.max_ t (time w c.Gate.cwire)) cs

let finished w t = if Wide.compare t w.depth > 0 then w.depth <- t

(* Every wire of [xs] and [cs] finishes [dt] after the latest of them. *)
let advance w xs cs dt =
  let t = Wide.add (latest_control w (latest w Wide.zero xs) cs) dt in
  List.iter (fun x -> Clock.replace w.clock x t) xs;
  List.iter (fun (c : Gate.control) -> Clock.replace w.clock c.Gate.cwire t) cs;
  finished w t

let advance1 w x =
  let t = Wide.succ (time w x) in
  Clock.replace w.clock x t;
  finished w t

let rec step w g =
  if w.do_counts then count w g;
  if w.do_peak then reach w g;
  if w.do_depth then tick w g

and count w (g : Gate.t) =
  match g with
  | Gate.Comment _ -> ()
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
  | g -> (
      match xkey_of_gate g with
      | None -> ()
      | Some x -> (
          let shifted =
            w.ambient && Gate.controllability g = Gate.Controllable
          in
          let x = if shifted then ambient_key w.amb x else x in
          match Xmap.find_opt x w.cells with
          | Some c -> c.n <- Wide.succ c.n
          | None ->
              let rep = if shifted then ambient_rep w.amb g else g in
              w.cells <- Xmap.add x { n = Wide.one; rep } w.cells))

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
      advance w targets controls Wide.one
  | Gate.Phase { controls; _ } -> advance w [] controls Wide.one
  | Gate.Init { wire; _ } | Gate.Measure { wire } -> advance1 w wire
  | Gate.Term { wire; _ } | Gate.Discard { wire; _ } ->
      advance1 w wire;
      (* the wire is dead: its finish time is in [depth] already *)
      Clock.remove w.clock wire
  | Gate.Cgate { out; ins; _ } -> advance w (out :: ins) [] Wide.one
  | Gate.Subroutine { name; inputs; outputs; controls; _ } ->
      let wires =
        List.sort_uniq Int.compare
          (inputs @ outputs
          @ List.map (fun (c : Gate.control) -> c.Gate.cwire) controls)
      in
      advance w wires [] (sub_depth w.env name)

and counts_of w =
  (* in order of each box's last call, so that, as if each call had been
     added as it came, the last call's representatives win *)
  let boxes =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (Hashtbl.fold (fun key p acc -> (p.last, key, p.calls) :: acc) w.pending [])
  in
  List.iter
    (fun (_, (name, amb, inv), calls) ->
      Xmap.iter
        (fun x (n, rep) ->
          let n = Wide.mul_int n calls in
          match Xmap.find_opt x w.cells with
          | Some c ->
              c.n <- Wide.add c.n n;
              c.rep <- rep
          | None -> w.cells <- Xmap.add x { n; rep } w.cells)
        (sub_counts w.env name amb inv))
    boxes;
  Hashtbl.reset w.pending;
  Xmap.map (fun c -> (c.n, c.rep)) w.cells

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
  match Hashtbl.find_opt env.dmemo name with
  | Some d -> d
  | None ->
      let d =
        (run env ~amb:no_amb ~counts:false ~peak:false ~depth:true
           (env.find name).Circuit.circ)
          .depth
      in
      Hashtbl.replace env.dmemo name d;
      d

let result w ~in_arity ~out_arity =
  let counts = counts_of w in
  {
    counts;
    (* the model keeps keyed counts only *)
    terms = flat counts;
    in_arity;
    out_arity;
    peak = (if w.do_peak then w.peak else 0);
    depth = w.depth;
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
