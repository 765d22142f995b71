(* Reference model of the circuit builder's live-wire bookkeeping as it
   was before the live map became one open-addressing table: a chained
   hash table hashed with [Hashtbl.hash], which every capture copied,
   reset and, on exit, refilled in the copy's iteration order; and a
   reversal that reversed the captured circuit, then replayed it through
   a renaming table. The wire a leaky capture names is the first
   undeclared one this table visits, so the builder must name the same
   wire on every program; [test_core] checks that on random programs.

   Only what those programs use is kept: allocation, the gates' liveness
   checks, [capture], [box] and [reverse_fun]. Ambient controls, sinks
   and execution are left out. *)

open Quipper
open Wire

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type ctx = {
  mutable fresh : Wire.t;
  live : Wire.ty Tbl.t;
  mutable buf : Gate.t Vec.t;
  subs : (string, Circuit.subroutine) Hashtbl.t;
}

type 'a t = ctx -> 'a

let return x : 'a t = fun _ -> x
let bind (m : 'a t) (f : 'a -> 'b t) : 'b t = fun c -> f (m c) c
let ( let* ) = bind

let fresh_wire c ty =
  let w = c.fresh in
  c.fresh <- c.fresh + 1;
  Tbl.replace c.live w ty;
  w

let alloc_id c =
  let w = c.fresh in
  c.fresh <- c.fresh + 1;
  w

let check_live c w ty =
  match Tbl.find_opt c.live w with
  | None -> Errors.raise_ (Dead_wire w)
  | Some ty' ->
      if ty <> ty' then Errors.raise_ (Wire_type { wire = w; expected = ty; got = ty' })

let emit c (g : Gate.t) =
  Gate.check_distinct g;
  (match g with
  | Gate.Gate { targets; controls; _ } | Gate.Rot { targets; controls; _ } ->
      List.iter (fun w -> check_live c w Wire.Q) targets;
      List.iter (fun (k : Gate.control) -> check_live c k.cwire k.cty) controls
  | Gate.Phase { controls; _ } ->
      List.iter (fun (k : Gate.control) -> check_live c k.cwire k.cty) controls
  | Gate.Init { ty; wire; _ } ->
      if Tbl.mem c.live wire then Errors.invalidf "init of already-live wire %d" wire
      else Tbl.add c.live wire ty
  | Gate.Term { ty; wire; _ } | Gate.Discard { ty; wire } ->
      check_live c wire ty;
      Tbl.remove c.live wire
  | Gate.Measure { wire } ->
      check_live c wire Wire.Q;
      Tbl.replace c.live wire Wire.C
  | Gate.Cgate { out; ins; _ } ->
      List.iter (fun w -> check_live c w Wire.C) ins;
      if Tbl.mem c.live out then Errors.invalidf "cgate output wire %d already live" out
      else Tbl.add c.live out Wire.C
  | Gate.Subroutine { name; inv; inputs; outputs; _ } ->
      let sub =
        match Hashtbl.find_opt c.subs name with
        | Some s -> s
        | None -> Errors.raise_ (Unknown_subroutine name)
      in
      let d_in = if inv then sub.circ.outputs else sub.circ.inputs in
      let d_out = if inv then sub.circ.inputs else sub.circ.outputs in
      List.iter2 (fun w (e : Wire.endpoint) -> check_live c w e.ty) inputs d_in;
      List.iter (fun w -> Tbl.remove c.live w) inputs;
      List.iter2 (fun w (e : Wire.endpoint) -> Tbl.replace c.live w e.ty) outputs d_out
  | Gate.Comment _ -> ());
  Vec.push c.buf g

let gate1 name (Qubit q) : unit t =
 fun c -> emit c (Gate.Gate { name; inv = false; targets = [ q ]; controls = [] })

let hadamard_ q = gate1 "H" q

let cnot ~control:(Qubit a) ~target:(Qubit b) : unit t =
 fun c ->
  emit c
    (Gate.Gate
       { name = "not"; inv = false; targets = [ b ]; controls = [ Gate.pos_control a ] })

let qinit_bit value : qubit t =
 fun c ->
  let w = alloc_id c in
  emit c (Gate.Init { ty = Wire.Q; value; wire = w });
  Qubit w

let cinit_bit value : bit t =
 fun c ->
  let w = alloc_id c in
  emit c (Gate.Init { ty = Wire.C; value; wire = w });
  Bit w

let qterm_bit value (Qubit q) : unit t =
 fun c -> emit c (Gate.Term { ty = Wire.Q; value; wire = q })

let cterm_bit value (Bit b) : unit t =
 fun c -> emit c (Gate.Term { ty = Wire.C; value; wire = b })

let measure_qubit (Qubit q) : bit t =
 fun c ->
  emit c (Gate.Measure { wire = q });
  Bit q

let capture (c : ctx) (in_w : ('b, 'q, 'cc) Qdata.t) (out_w : ('b2, 'q2, 'c2) Qdata.t)
    (f : 'q -> 'q2 t) : Circuit.t =
  let saved_buf = c.buf and saved_live = Tbl.copy c.live in
  c.buf <- Vec.create ();
  Tbl.reset c.live;
  Fun.protect
    ~finally:(fun () ->
      c.buf <- saved_buf;
      Tbl.reset c.live;
      Tbl.iter (fun k v -> Tbl.replace c.live k v) saved_live)
    (fun () ->
      let ins = List.map (fun ty -> { Wire.wire = fresh_wire c ty; ty }) in_w.Qdata.tys in
      let outs = Qdata.qleaves out_w (f (Qdata.qbuild in_w ins) c) in
      Tbl.iter
        (fun w _ ->
          if not (List.exists (fun (e : Wire.endpoint) -> e.wire = w) outs) then
            Errors.raise_
              (Shape_mismatch
                 (Fmt.str "captured function leaks wire %d (not in output shape)" w)))
        c.live;
      { Circuit.inputs = ins; gates = Vec.to_array c.buf; outputs = outs })

let replay (c : ctx) (circ : Circuit.t) (actual_ins : Wire.endpoint list) :
    Wire.endpoint list =
  let map = Tbl.create 32 in
  if List.length circ.inputs <> List.length actual_ins then
    Errors.raise_ (Shape_mismatch "replay: input arity");
  List.iter2
    (fun (d : Wire.endpoint) (a : Wire.endpoint) ->
      if d.ty <> a.ty then Errors.raise_ (Shape_mismatch "replay: input wire type");
      Tbl.replace map d.wire a.wire)
    circ.inputs actual_ins;
  let rename_born w =
    match Tbl.find_opt map w with
    | Some w' -> w'
    | None ->
        let w' = alloc_id c in
        Tbl.replace map w w';
        w'
  in
  let rename w =
    match Tbl.find_opt map w with Some w' -> w' | None -> Errors.raise_ (Dead_wire w)
  in
  Array.iter
    (fun g ->
      emit c
        (match g with
        | Gate.Init i -> Gate.Init { i with wire = rename_born i.wire }
        | Gate.Subroutine s ->
            let inputs = List.map rename s.inputs in
            let outputs = List.map rename_born s.outputs in
            Gate.Subroutine { s with inputs; outputs }
        | g -> Gate.rename rename g))
    circ.gates;
  List.map (fun (e : Wire.endpoint) -> { e with wire = rename e.wire }) circ.outputs

let reverse_fun ~(in_ : ('b, 'q, 'c) Qdata.t) ~(out : ('b2, 'q2, 'c2) Qdata.t)
    (f : 'q -> 'q2 t) : 'q2 -> 'q t =
 fun y c ->
  let rev = Circuit.reverse (capture c in_ out f) in
  Qdata.qbuild in_ (replay c rev (Qdata.qleaves out y))

let box name ~(in_ : ('b, 'q, 'c) Qdata.t) ~(out : ('b2, 'q2, 'c2) Qdata.t)
    (f : 'q -> 'q2 t) : 'q -> 'q2 t =
 fun x c ->
  (match Hashtbl.find_opt c.subs name with
  | Some existing ->
      if List.map (fun (e : Wire.endpoint) -> e.ty) existing.circ.inputs <> in_.Qdata.tys
      then Errors.raise_ (Subroutine_redefined name)
  | None ->
      let circ = capture c in_ out f in
      Hashtbl.replace c.subs name { Circuit.circ; controllable = true });
  let sub = Hashtbl.find c.subs name in
  let d_in = sub.circ.inputs and d_out = sub.circ.outputs in
  let actual_ins = Qdata.qleaves in_ x in
  if List.length actual_ins <> List.length d_in then
    Errors.raise_ (Shape_mismatch (Fmt.str "box %s: input arity" name));
  let n = List.length d_in in
  let first = match d_in with d :: _ -> d.wire | [] -> 0 in
  let actual_outs =
    List.map
      (fun (e : Wire.endpoint) ->
        let i = e.wire - first in
        { e with wire = (if i >= 0 && i < n then (List.nth actual_ins i).wire else alloc_id c) })
      d_out
  in
  emit c
    (Gate.Subroutine
       {
         name;
         inv = false;
         inputs = List.map (fun (e : Wire.endpoint) -> e.wire) actual_ins;
         outputs = List.map (fun (e : Wire.endpoint) -> e.wire) actual_outs;
         controls = [];
       });
  Qdata.qbuild out actual_outs

(* The gates of [f] on fresh inputs of the given wire types. *)
let generate tys (f : Wire.endpoint list -> 'r t) : Gate.t array * 'r =
  let c =
    { fresh = 0; live = Tbl.create 64; buf = Vec.create (); subs = Hashtbl.create 16 }
  in
  let ins = List.map (fun ty -> { Wire.wire = fresh_wire c ty; ty }) tys in
  let r = f ins c in
  (Vec.to_array c.buf, r)
