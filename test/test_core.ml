(* Tests for the circuit IR and the Circ builder: physicality checks,
   control structure, ancilla scoping, with_computed, shape witnesses,
   boxed subcircuits, reversal, printing. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let gen1 f = fst (Circ.generate ~in_:Qdata.qubit f)
let gen2 f = fst (Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) f)

let expect_error reason_pred f =
  match f () with
  | exception Errors.Error r -> check "expected error kind" true (reason_pred r)
  | _ -> Alcotest.fail "expected an Errors.Error"

(* ------------------------------------------------------------------ *)
(* Physicality checks (paper 4.1: run-time checks)                     *)

let test_no_cloning () =
  expect_error
    (function Errors.No_cloning _ -> true | _ -> false)
    (fun () -> gen1 (fun q -> cnot ~control:q ~target:q))

let test_dead_wire () =
  expect_error
    (function Errors.Dead_wire _ -> true | _ -> false)
    (fun () ->
      gen1 (fun q ->
          let* () = qterm_bit false q in
          hadamard q))

let test_wire_type () =
  expect_error
    (function Errors.Wire_type _ -> true | _ -> false)
    (fun () ->
      gen1 (fun q ->
          let* b = measure_qubit q in
          ignore b;
          (* the wire id survives but is classical now *)
          hadamard q))

let test_control_on_target () =
  expect_error
    (function Errors.No_cloning _ -> true | _ -> false)
    (fun () -> gen1 (fun q -> qnot_ q |> controlled [ ctl q ]))

let test_measure_under_control () =
  expect_error
    (function Errors.Not_controllable _ -> true | _ -> false)
    (fun () ->
      gen2 (fun (a, b) ->
          with_controls [ ctl a ]
            (let* _ = measure_qubit b in
             return ())))

let test_init_is_control_neutral () =
  (* inits and terms pass through controlled blocks uncontrolled; the
     gates inside acquire the control *)
  let b =
    gen1 (fun q -> with_controls [ ctl q ] (with_ancilla (fun a -> qnot_ a)))
  in
  let counts = Gatecount.aggregate b in
  checki "the not acquired the control" 1
    (Gatecount.get counts
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 1; neg_controls = 0 });
  checki "init unaffected" 1 (Gatecount.find_kind counts "Init0");
  checki "term unaffected" 1 (Gatecount.find_kind counts "Term0")

let test_validate_catches_corruption () =
  let b = gen2 (fun (a, b) -> cnot ~control:a ~target:b >> return ()) in
  Circuit.validate_b b;
  (* corrupt: reference a bogus wire *)
  let bad =
    {
      b with
      Circuit.main =
        {
          b.Circuit.main with
          Circuit.gates =
            Array.append b.Circuit.main.Circuit.gates
              [| Gate.Gate { name = "H"; inv = false; targets = [ 99 ]; controls = [] } |];
        };
    }
  in
  expect_error
    (function Errors.Dead_wire 99 -> true | _ -> false)
    (fun () -> Circuit.validate_b bad)

(* ------------------------------------------------------------------ *)
(* Control structure                                                   *)

let test_nested_controls () =
  let b =
    fst
      (Circ.generate ~in_:(Qdata.triple Qdata.qubit Qdata.qubit Qdata.qubit)
         (fun (a, b, c) ->
           with_controls [ ctl a ]
             (with_controls [ ctl_neg b ] (qnot_ c))))
  in
  let counts = Gatecount.aggregate b in
  checki "controls accumulate" 1
    (Gatecount.get counts
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 1; neg_controls = 1 })

let test_without_controls () =
  let b =
    gen2 (fun (a, b) -> with_controls [ ctl a ] (without_controls (qnot_ b)))
  in
  let counts = Gatecount.aggregate b in
  checki "control suppressed" 1
    (Gatecount.get counts
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 0; neg_controls = 0 })

let test_classical_control () =
  let b =
    gen2 (fun (a, b) ->
        let* m = measure_qubit a in
        qnot_ b |> controlled [ ctl_bit m ])
  in
  Circuit.validate_b b;
  check "classically-controlled gate present" true
    (Array.exists
       (function
         | Gate.Gate { controls = [ { Gate.cty = Wire.C; _ } ]; _ } -> true
         | _ -> false)
       b.Circuit.main.Circuit.gates)

(* ------------------------------------------------------------------ *)
(* with_computed (paper 5.3.1)                                         *)

let test_with_computed_uncomputes () =
  let b =
    gen1 (fun q ->
        with_computed
          (let* a = qinit_bit false in
           let* () = cnot ~control:q ~target:a in
           return a)
          (fun a ->
            let* out = qinit_bit false in
            let* () = cnot ~control:a ~target:out in
            return out))
  in
  Circuit.validate_b b;
  (* net wires: input q + out; the intermediate a was uncomputed *)
  checki "two outputs" 2 (List.length b.Circuit.main.Circuit.outputs);
  let counts = Gatecount.aggregate b in
  checki "init count" 2 (Gatecount.find_kind counts "Init0");
  checki "term count" 1 (Gatecount.find_kind counts "Term0")

let test_with_computed_control_trimming () =
  let make trimming =
    Circ.control_trimming := trimming;
    Fun.protect
      ~finally:(fun () -> Circ.control_trimming := true)
      (fun () ->
        gen2 (fun (c, q) ->
            with_controls [ ctl c ]
              (with_computed
                 (let* a = qinit_bit false in
                  let* () = cnot ~control:q ~target:a in
                  return a)
                 (fun a ->
                   let* out = qinit_bit false in
                   let* () = cnot ~control:a ~target:out in
                   return out)
                 >>= fun _ -> return ())))
  in
  let trimmed = Gatecount.aggregate (make true) in
  let untrimmed = Gatecount.aggregate (make false) in
  (* trimmed: only the body CNOT carries the extra control *)
  checki "trimmed: 1 doubly-controlled not" 1
    (Gatecount.get trimmed
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 2; neg_controls = 0 });
  checki "trimmed: 2 singly-controlled nots" 2
    (Gatecount.get trimmed
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 1; neg_controls = 0 });
  checki "untrimmed: 3 doubly-controlled nots" 3
    (Gatecount.get untrimmed
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 2; neg_controls = 0 })

let test_with_computed_classical_semantics () =
  (* f(x,y) = (x, y xor x) via compute-copy-uncompute round trip *)
  let shape = Qdata.pair Qdata.qubit Qdata.qubit in
  List.iter
    (fun (x, y) ->
      let x', y' =
        Quipper_sim.Classical.run_oracle ~in_:shape ~out:shape (x, y)
          (fun (x, y) ->
            let* () =
              with_computed
                (let* a = qinit_bit false in
                 let* () = cnot ~control:x ~target:a in
                 return a)
                (fun a -> cnot ~control:a ~target:y)
            in
            return (x, y))
      in
      check "x preserved" true (x' = x);
      check "y xor x" true (y' = (y <> x)))
    [ (false, false); (false, true); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* Shape witnesses (paper 4.5)                                         *)

let test_qdata_roundtrip () =
  let w = Qdata.triple Qdata.qubit (Qdata.list_of 3 Qdata.qubit) Qdata.bit in
  checki "size" 5 (Qdata.size w);
  let b, (_q, _l, _c) =
    Circ.generate ~in_:w (fun x -> return x)
  in
  checki "inputs" 5 (List.length b.Circuit.main.Circuit.inputs);
  check "bit leaf type" true
    (List.exists (fun (e : Wire.endpoint) -> e.Wire.ty = Wire.C) b.Circuit.main.Circuit.inputs)

let test_qdata_bool_roundtrip () =
  let w = Qdata.pair (Qdata.list_of 4 Qdata.qubit) Qdata.qubit in
  let bools = ([ true; false; true; true ], false) in
  check "bool roundtrip" true (Qdata.bbuild w (Qdata.bleaves w bools) = bools)

let test_qinit_measure_generic () =
  let w = Qdata.pair Qdata.qubit (Qdata.list_of 2 Qdata.qubit) in
  let b =
    fst
      (Circ.generate_unit
         (let* x = qinit w (true, [ false; true ]) in
          let* _ = measure w x in
          return ()))
  in
  let counts = Gatecount.aggregate b in
  checki "three measures" 3 (Gatecount.find_kind counts "Meas");
  checki "two init1" 2 (Gatecount.find_kind counts "Init1");
  checki "one init0" 1 (Gatecount.find_kind counts "Init0")

let test_controlled_not_generic () =
  let w = Qdata.list_of 3 Qdata.qubit in
  let shape = Qdata.pair w w in
  let t, s =
    Quipper_sim.Classical.run_oracle ~in_:shape ~out:shape
      ([ false; false; false ], [ true; false; true ])
      (fun (t, s) ->
        let* () = controlled_not w ~target:t ~source:s in
        return (t, s))
  in
  check "copied" true (t = [ true; false; true ] && s = [ true; false; true ])

let test_shape_mismatch () =
  let w = Qdata.list_of 3 Qdata.qubit in
  expect_error
    (function Errors.Shape_mismatch _ -> true | _ -> false)
    (fun () -> Qdata.qleaves w [])

(* Comment labels: a single leaf keeps its name, every other structure
   numbers its leaves in order, two digits included. *)
let test_label_strings () =
  let labels_of m =
    let b, () = Circ.generate_unit m in
    Array.to_list b.Circuit.main.Circuit.gates
    |> List.concat_map (function
         | Gate.Comment { labels; _ } -> List.map snd labels
         | _ -> [])
  in
  let reg = Qdata.list_of 12 Qdata.qubit and t = Qdata.triple Qdata.qubit (Qdata.list_of 2 Qdata.qubit) Qdata.bit in
  Alcotest.(check (list string)) "single leaf" [ "q" ]
    (labels_of (let* q = qinit Qdata.qubit false in comment_with_label "c" Qdata.qubit q "q"));
  Alcotest.(check (list string)) "register"
    (List.init 12 (fun i -> Printf.sprintf "r[%d]" i))
    (labels_of (let* r = qinit reg (List.init 12 (fun _ -> false)) in comment_with_label "c" reg r "r"));
  Alcotest.(check (list string)) "triple and several labels"
    [ "t[0]"; "t[1]"; "t[2]"; "t[3]"; "q"; "long name[0]"; "long name[1]" ]
    (labels_of
       (let* x = qinit t (false, [ true; false ], true) in
        let* q = qinit Qdata.qubit false in
        let* u = qinit (Qdata.pair Qdata.qubit Qdata.qubit) (false, false) in
        comment_with_labels "c"
          [ lab t x "t"; lab Qdata.qubit q "q"; lab (Qdata.pair Qdata.qubit Qdata.qubit) u "long name" ]))

(* A surplus is refused on every version, where the builds once dropped
   it when a list ended the structure. *)
let test_surplus_refused () =
  let text f =
    match f () with
    | _ -> Alcotest.fail "expected Shape_mismatch"
    | exception Errors.Error (Shape_mismatch s) -> s
  in
  let q i = Wire.qw i and cw i = Wire.cw i in
  let w = Qdata.pair Qdata.qubit (Qdata.list_of 2 Qdata.qubit) in
  Alcotest.(check string) "quantum" "too many leaves"
    (text (fun () -> Qdata.qbuild w [ q 0; q 1; q 2; q 3 ]));
  Alcotest.(check string) "classical" "too many leaves"
    (text (fun () -> Qdata.cbuild w [ cw 0; cw 1; cw 2; cw 3 ]));
  Alcotest.(check string) "parameter" "too many leaves"
    (text (fun () -> Qdata.bbuild (Qdata.list_of 2 Qdata.qubit) [ true; false; true ]));
  Alcotest.(check string) "unit" "too many leaves"
    (text (fun () -> Qdata.qbuild Qdata.unit [ q 0 ]));
  check "exact length still builds" true
    (Qdata.qbuild w [ q 0; q 1; q 2 ] = (Wire.Qubit 0, [ Wire.Qubit 1; Wire.Qubit 2 ]))

(* Witnesses against [Qdata_ref], on random nested shapes. [pack d]
   builds the witness of [d] twice, new and reference, and a generator
   of values of its three versions whose lists and arrays are sometimes
   one element too long or too short, each independently. *)
module Ref = Quipper_testgen.Qdata_ref

type desc =
  | Q
  | B
  | U
  | Pair of desc * desc
  | Triple of desc * desc * desc
  | Quad of desc * desc * desc * desc
  | List of int * desc
  | Array of int * desc
  | Iso of desc

type packed =
  | P : ('b, 'q, 'c) Qdata.t * ('b, 'q, 'c) Ref.t * (Random.State.t -> 'q * 'c * 'b) -> packed

let rec pack d =
  let off_by_one st n =
    match Random.State.int st 6 with 0 -> n + 1 | 1 -> max 0 (n - 1) | _ -> n
  in
  match d with
  | Q ->
      P (Qdata.qubit, Ref.qubit, fun st -> let i = Random.State.int st 99 in (Wire.Qubit i, Wire.Bit i, i > 49))
  | B -> P (Qdata.bit, Ref.bit, fun st -> let i = Random.State.int st 99 in (Wire.Bit i, Wire.Bit i, i > 49))
  | U -> P (Qdata.unit, Ref.unit, fun _ -> ((), (), ()))
  | Pair (a, b) ->
      let (P (na, ra, ga)) = pack a in
      let (P (nb, rb, gb)) = pack b in
      P
        ( Qdata.pair na nb, Ref.pair ra rb,
          fun st ->
            let qa, ca, ba = ga st in
            let qb, cb, bb = gb st in
            ((qa, qb), (ca, cb), (ba, bb)) )
  | Triple (a, b, c) ->
      let (P (na, ra, ga)) = pack a in
      let (P (nb, rb, gb)) = pack b in
      let (P (nc, rc, gc)) = pack c in
      P
        ( Qdata.triple na nb nc, Ref.triple ra rb rc,
          fun st ->
            let qa, ca, ba = ga st in
            let qb, cb, bb = gb st in
            let qc, cc, bc = gc st in
            ((qa, qb, qc), (ca, cb, cc), (ba, bb, bc)) )
  | Quad (a, b, c, e) ->
      let (P (na, ra, ga)) = pack a in
      let (P (nb, rb, gb)) = pack b in
      let (P (nc, rc, gc)) = pack c in
      let (P (ne, re, ge)) = pack e in
      P
        ( Qdata.quad na nb nc ne, Ref.quad ra rb rc re,
          fun st ->
            let qa, ca, ba = ga st in
            let qb, cb, bb = gb st in
            let qc, cc, bc = gc st in
            let qe, ce, be = ge st in
            ((qa, qb, qc, qe), (ca, cb, cc, ce), (ba, bb, bc, be)) )
  | List (n, a) ->
      let (P (na, ra, ga)) = pack a in
      let elements st =
        let xs = List.init (off_by_one st n) (fun _ -> ga st) in
        (List.map (fun (q, _, _) -> q) xs, List.map (fun (_, c, _) -> c) xs, List.map (fun (_, _, b) -> b) xs)
      in
      P (Qdata.list_of n na, Ref.list_of n ra, elements)
  | Array (n, a) ->
      let (P (na, ra, ga)) = pack a in
      let elements st =
        let xs = Array.init (off_by_one st n) (fun _ -> ga st) in
        (Array.map (fun (q, _, _) -> q) xs, Array.map (fun (_, c, _) -> c) xs, Array.map (fun (_, _, b) -> b) xs)
      in
      P (Qdata.array_of n na, Ref.array_of n ra, elements)
  | Iso a ->
      let (P (na, ra, ga)) = pack a in
      let iso w =
        w ~bto:Option.some ~bof:Option.get ~qto:Option.some ~qof:Option.get ~cto:Option.some
          ~cof:Option.get
      in
      P (iso Qdata.iso na, iso Ref.iso ra, fun st -> let q, c, b = ga st in (Some q, Some c, Some b))

let desc_gen =
  let open QCheck2.Gen in
  let len = frequency [ (4, int_range 1 3); (1, pure 0) ] in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf = frequency [ (4, pure Q); (2, pure B); (1, pure U) ] in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [
               (2, leaf);
               (2, map2 (fun a b -> Pair (a, b)) sub sub);
               (1, map3 (fun a b c -> Triple (a, b, c)) sub sub sub);
               (1, map4 (fun a b c d -> Quad (a, b, c, d)) sub sub sub sub);
               (2, map2 (fun k a -> List (k, a)) len sub);
               (2, map2 (fun k a -> Array (k, a)) len sub);
               (1, map (fun a -> Iso a) sub);
             ])

(* Leaves for a build: in a third of the lists about a fifth of the types
   flipped; then the list exact, cut short, or one to three leaves too
   long. *)
let endpoints tys seed =
  let st = Random.State.make [| seed |] in
  let n = List.length tys in
  let flip = Random.State.int st 3 = 0 in
  let es =
    List.mapi
      (fun i ty ->
        let ty = if flip && Random.State.int st 5 = 0 then (if ty = Wire.Q then Wire.C else Wire.Q) else ty in
        { Wire.wire = i; ty })
      tys
  in
  match Random.State.int st 4 with
  | 0 ->
      let k = Random.State.int st (n + 1) in
      List.filteri (fun i _ -> i < k) es
  | 1 -> es @ List.init (1 + Random.State.int st 3) (fun i -> Wire.qw (n + i))
  | _ -> es

let outcome f =
  match f () with
  | v -> Ok v
  | exception Errors.Error (Shape_mismatch s) -> Error s

type stats = { mutable ref_accepted_surplus : int; texts : (string, unit) Hashtbl.t }

let stats = { ref_accepted_surplus = 0; texts = Hashtbl.create 8 }

let agree_on (P (nw, rw, values)) seed =
  let n = Ref.size rw in
  let es = endpoints rw.tys seed in
  let bools = List.map (fun (e : Wire.endpoint) -> e.ty = Wire.Q) es in
  let same a b =
    (match b with Error s -> Hashtbl.replace stats.texts s () | Ok _ -> ());
    a = b
  in
  let builds =
    if List.length es > n then begin
      let refused = function Error _ -> true | Ok _ -> false in
      if not (refused (outcome (fun () -> rw.qbuild es))) then
        stats.ref_accepted_surplus <- stats.ref_accepted_surplus + 1;
      refused (outcome (fun () -> Qdata.qbuild nw es))
      && refused (outcome (fun () -> Qdata.cbuild nw es))
      && refused (outcome (fun () -> Qdata.bbuild nw bools))
    end
    else
      same (outcome (fun () -> Qdata.qbuild nw es)) (outcome (fun () -> rw.qbuild es))
      && same (outcome (fun () -> Qdata.cbuild nw es)) (outcome (fun () -> rw.cbuild es))
      && same (outcome (fun () -> Qdata.bbuild nw bools)) (outcome (fun () -> rw.bbuild bools))
  in
  (* leaves, or the error, of values that are well-formed or not *)
  let x, c, b = values (Random.State.make [| seed |]) in
  builds
  && same (outcome (fun () -> Qdata.qleaves nw x)) (outcome (fun () -> rw.qleaves x))
  && same (outcome (fun () -> Qdata.cleaves nw c)) (outcome (fun () -> rw.cleaves c))
  && same (outcome (fun () -> Qdata.bleaves nw b)) (outcome (fun () -> rw.bleaves b))

let witness_case_gen =
  let open QCheck2.Gen in
  let* d = desc_gen in
  let* seeds = list_repeat 8 (int_bound 1_000_000) in
  pure (d, seeds)

let prop_witnesses_match_reference =
  QCheck2.Test.make ~name:"witnesses = Qdata_ref on random shapes" ~count:500 witness_case_gen
    (fun (d, seeds) ->
      let p = pack d in
      List.for_all (agree_on p) seeds)

(* the property's cases must meet every error text and surpluses the
   reference accepted *)
let test_witness_coverage () =
  Hashtbl.reset stats.texts;
  stats.ref_accepted_surplus <- 0;
  List.iter
    (fun (d, seeds) ->
      let p = pack d in
      List.iter (fun seed -> ignore (agree_on p seed)) seeds)
    (QCheck2.Gen.generate ~rand:(Random.State.make [| 28 |]) ~n:500 witness_case_gen);
  let texts = Hashtbl.fold (fun s () acc -> s :: acc) stats.texts [] in
  List.iter
    (fun t ->
      if not (List.exists (fun s -> Astring_contains.contains s t) texts) then
        Alcotest.failf "no reference error %S met" t)
    [ "not enough leaves"; "qubit leaf"; "bit leaf"; "bool leaf"; "list length" ];
  if stats.ref_accepted_surplus < 20 then
    Alcotest.failf "only %d surpluses the reference accepted" stats.ref_accepted_surplus

(* ------------------------------------------------------------------ *)
(* Boxed subcircuits (paper 4.4.4)                                     *)

let boxed_h name = box name ~in_:Qdata.qubit ~out:Qdata.qubit hadamard

let test_box_defines_once () =
  let b =
    gen1 (fun q ->
        let* q = boxed_h "bh" q in
        let* q = boxed_h "bh" q in
        boxed_h "bh" q)
  in
  checki "one definition" 1 (List.length b.Circuit.sub_order);
  checki "three call gates" 3
    (Array.fold_left
       (fun acc g -> match g with Gate.Subroutine _ -> acc + 1 | _ -> acc)
       0 b.Circuit.main.Circuit.gates);
  let counts = Gatecount.aggregate b in
  checki "aggregated H count" 3 (Gatecount.find_kind counts "H")

let test_box_inline_agrees () =
  let b =
    gen1 (fun q ->
        let sub =
          box "sub2" ~in_:Qdata.qubit ~out:Qdata.qubit (fun q ->
              let* q = hadamard q in
              let* q = gate_T q in
              with_ancilla (fun a ->
                  let* () = cnot ~control:q ~target:a in
                  let* () = cnot ~control:q ~target:a in
                  return q))
        in
        let* q = sub q in
        sub q)
  in
  Circuit.validate_b b;
  let flat = Circuit.inline b in
  Circuit.validate flat;
  let agg = Gatecount.aggregate b in
  let shallow = Gatecount.shallow flat in
  checki "aggregate = inline count" (Gatecount.total agg) (Gatecount.total shallow);
  check "same breakdown" true (Gatecount.Counts.equal ( = ) agg shallow)

let test_box_creates_fresh_outputs () =
  (* a box whose body allocates a new wire: the call must bind fresh ids *)
  let dup =
    box "dup" ~in_:Qdata.qubit ~out:(Qdata.pair Qdata.qubit Qdata.qubit)
      (fun q ->
        let* c = qinit_bit false in
        let* () = cnot ~control:q ~target:c in
        return (q, c))
  in
  let b =
    gen1 (fun q ->
        let* q, c1 = dup q in
        let* _, c2 = dup c1 in
        let* () = qterm_bit false c2 |> without_controls in
        return q)
  in
  Circuit.validate_b b;
  let flat = Circuit.inline b in
  Circuit.validate flat

let test_box_leak_detection () =
  expect_error
    (function Errors.Shape_mismatch _ -> true | _ -> false)
    (fun () ->
      gen1
        (box "leaky" ~in_:Qdata.qubit ~out:Qdata.qubit (fun q ->
             let* _ = qinit_bit false in
             return q)))

let test_box_controlled_call () =
  let b =
    gen2 (fun (c, q) ->
        with_controls [ ctl c ] (boxed_h "bh3" q))
  in
  Circuit.validate_b b;
  let counts = Gatecount.aggregate b in
  checki "H acquired the call's control" 1
    (Gatecount.get counts
       { Gatecount.kind = "H"; inverted = false; pos_controls = 1; neg_controls = 0 })

let test_box_uncontrollable () =
  let meas_box =
    box "measbox" ~in_:Qdata.qubit ~out:Qdata.bit (fun q -> measure_qubit q)
  in
  (* defining and using it uncontrolled is fine *)
  let b = gen1 (fun q -> meas_box q) in
  Circuit.validate_b b;
  (* controlled use must fail *)
  expect_error
    (function Errors.Not_controllable _ -> true | _ -> false)
    (fun () ->
      gen2 (fun (c, q) -> with_controls [ ctl c ] (meas_box q)))

(* ------------------------------------------------------------------ *)
(* Reversal (paper 4.2.2 / 4.4.3)                                      *)

let test_reverse_simple_inverts () =
  let f q =
    let* q = hadamard q in
    let* q = gate_T q in
    return q
  in
  let b =
    gen1 (fun q ->
        let* q = f q in
        reverse_simple Qdata.qubit f q)
  in
  (* H T T* H: middle gates are mutual inverses *)
  let optimized = Transform.cancel_inverses b in
  checki "everything cancels" 0
    (Circuit.gate_count_shallow optimized.Circuit.main)

let test_reverse_with_init_term () =
  (* circuits with init/term reverse "without complaint" *)
  let f q =
    let* a = qinit_bit false in
    let* () = cnot ~control:q ~target:a in
    let* _ = hadamard a in
    return (q, a)
  in
  let b =
    fst
      (Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit)
         (fun (q, a) ->
           reverse_fun ~in_:Qdata.qubit ~out:(Qdata.pair Qdata.qubit Qdata.qubit) f (q, a)))
  in
  Circuit.validate_b b;
  let counts = Gatecount.aggregate b in
  (* the reversed circuit terminates the former ancilla *)
  checki "term present" 1 (Gatecount.find_kind counts "Term0")

let test_reverse_rejects_measurement () =
  expect_error
    (function Errors.Not_reversible _ -> true | _ -> false)
    (fun () ->
      gen1 (fun q ->
          reverse_fun ~in_:Qdata.qubit ~out:Qdata.bit measure_qubit (Wire.Bit (Wire.qubit_wire q))))

let test_circuit_level_reverse_roundtrip () =
  let b = gen2 (fun (a, b) ->
      let* _ = hadamard a in
      let* () = cnot ~control:a ~target:b in
      let* _ = gate_T b in
      return (a, b))
  in
  let rr = Reverse.bcircuit (Reverse.bcircuit b) in
  check "double reverse restores gates" true
    (rr.Circuit.main.Circuit.gates = b.Circuit.main.Circuit.gates)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let test_printer_output () =
  let b = gen2 (fun (a, b) ->
      let* _ = hadamard a in
      let* () = cnot ~control:a ~target:b in
      return (a, b))
  in
  let s = Printer.to_string b in
  check "has H" true (Astring_contains.contains s "QGate[\"H\"]");
  check "has controls" true (Astring_contains.contains s "with controls=[+0]");
  check "has inputs line" true (Astring_contains.contains s "Inputs: 0:Qubit, 1:Qubit")

let test_ascii_output () =
  let b = gen2 (fun (a, b) ->
      let* _ = hadamard a in
      let* () = cnot ~control:a ~target:b in
      return (a, b))
  in
  let s = Ascii.render b.Circuit.main in
  check "has H box" true (Astring_contains.contains s "[H]");
  check "has control dot" true (Astring_contains.contains s "*")

let test_comment_labels () =
  let b =
    gen1 (fun q ->
        let* () = comment_with_label "ENTER: test" Qdata.qubit q "x" in
        hadamard q)
  in
  let s = Printer.to_string b in
  check "comment text" true (Astring_contains.contains s "ENTER: test");
  check "comment label" true (Astring_contains.contains s "\"x\"")

(* ------------------------------------------------------------------ *)
(* Width-linear wire checks: same wires, same errors                   *)

let error_text f =
  match f () with
  | exception Errors.Error r -> Errors.to_string r
  | _ -> Alcotest.fail "expected an Errors.Error"

(* a one-gate circuit whose inputs are exactly [ins] *)
let validate_single g ins =
  let ends = List.map Wire.qw ins in
  Circuit.validate { Circuit.inputs = ends; gates = [| g |]; outputs = ends }

(* The no-cloning error names the first repeat in [Gate.wires] order,
   not, say, the smallest repeated id. *)
let test_no_cloning_names_first_repeat () =
  let w4 = Qdata.list_of 4 Qdata.qubit in
  Alcotest.(check string) "box call on [a; b; b; a]"
    "wire 1 used twice in one gate (no-cloning)"
    (error_text (fun () ->
         Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (a, b) ->
             box "four" ~in_:w4 ~out:w4 return [ a; b; b; a ])));
  Alcotest.(check string) "target repeated among controls"
    "wire 7 used twice in one gate (no-cloning)"
    (error_text (fun () ->
         validate_single
           (Gate.Gate
              { name = "not"; inv = false; targets = [ 7 ];
                controls = [ Gate.pos_control 3; Gate.pos_control 7; Gate.neg_control 3 ] })
           [ 3; 7 ]));
  Alcotest.(check string) "call output born at the call, repeated as a control"
    "wire 2 used twice in one gate (no-cloning)"
    (error_text (fun () ->
         validate_single
           (Gate.Subroutine
              { name = "f"; inv = false; inputs = [ 5; 1 ]; outputs = [ 1; 9; 5; 2 ];
                controls = [ Gate.pos_control 4; Gate.pos_control 2 ] })
           [ 1; 4; 5 ]));
  Alcotest.(check string) "call output born twice"
    "wire 8 used twice in one gate (no-cloning)"
    (error_text (fun () ->
         validate_single
           (Gate.Subroutine
              { name = "f"; inv = false; inputs = [ 5; 1 ]; outputs = [ 8; 1; 8 ]; controls = [] })
           [ 1; 5 ]))

(* With several leaked wires, the one named follows the live table's
   iteration order, here after a nested capture. *)
let test_box_leak_texts () =
  Alcotest.(check string) "three leaked ancillas"
    "shape mismatch: captured function leaks wire 2 (not in output shape)"
    (error_text (fun () ->
         Circ.generate ~in_:Qdata.qubit
           (box "leaky3" ~in_:Qdata.qubit ~out:Qdata.qubit (fun q ->
                let* _ = qinit_bit false in
                let* _ = qinit_bit true in
                let* _ = qinit_bit false in
                return q))));
  let w4 = Qdata.list_of 4 Qdata.qubit in
  Alcotest.(check string) "leaks after a nested box"
    "shape mismatch: captured function leaks wire 7 (not in output shape)"
    (error_text (fun () ->
         Circ.generate ~in_:w4
           (box "outer" ~in_:w4 ~out:Qdata.qubit (fun qs ->
                let* qs =
                  box "inner" ~in_:w4 ~out:w4
                    (fun qs ->
                      let* () = hadamard_ (List.hd qs) in
                      return qs)
                    qs
                in
                let* _ = qinit_bit false in
                return (List.nth qs 2)))))

let prop_wires_match_reference =
  QCheck2.Test.make ~name:"Gate.wires = list-scan reference" ~count:300
    Gen.wide_gate_gen
    (fun g -> Gate.wires g = Gen.reference_wires g)

let prop_distinct_matches_reference =
  QCheck2.Test.make ~name:"Gate.check_distinct = list-scan reference" ~count:300
    Gen.wide_gate_gen
    (fun g ->
      let got =
        match Gate.check_distinct g with
        | () -> None
        | exception Errors.Error (Errors.No_cloning w) -> Some w
      in
      got = Gen.reference_first_repeat g)

(* ------------------------------------------------------------------ *)
(* Properties over random circuits                                     *)

let prop_generated_circuits_validate =
  QCheck2.Test.make ~name:"random programs generate valid circuits" ~count:100
    (Gen.program_gen ~n:4 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      Circuit.validate_b b;
      Circuit.validate (Circuit.inline b);
      true)

let prop_reverse_validates =
  QCheck2.Test.make ~name:"reversed random circuits validate" ~count:100
    (Gen.program_gen ~n:4 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      Circuit.validate_b (Reverse.bcircuit b);
      true)

let prop_double_reverse_identity =
  QCheck2.Test.make ~name:"reverse o reverse = id on gates" ~count:100
    (Gen.program_gen ~n:4 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let b = (* strip comments: reversal drops them *) b in
      let rr = Reverse.bcircuit (Reverse.bcircuit b) in
      rr.Circuit.main.Circuit.gates
      = Array.of_seq
          (Seq.filter (fun g -> not (Gate.is_comment g))
             (Array.to_seq b.Circuit.main.Circuit.gates)))

let suite =
  [
    Alcotest.test_case "no-cloning rejected" `Quick test_no_cloning;
    Alcotest.test_case "dead wire rejected" `Quick test_dead_wire;
    Alcotest.test_case "wire type tracked through measure" `Quick test_wire_type;
    Alcotest.test_case "control = target rejected" `Quick test_control_on_target;
    Alcotest.test_case "measure under control rejected" `Quick test_measure_under_control;
    Alcotest.test_case "init/term are control-neutral" `Quick test_init_is_control_neutral;
    Alcotest.test_case "validate catches corruption" `Quick test_validate_catches_corruption;
    Alcotest.test_case "nested controls accumulate" `Quick test_nested_controls;
    Alcotest.test_case "without_controls" `Quick test_without_controls;
    Alcotest.test_case "classically-controlled gates" `Quick test_classical_control;
    Alcotest.test_case "with_computed uncomputes" `Quick test_with_computed_uncomputes;
    Alcotest.test_case "with_computed trims controls" `Quick test_with_computed_control_trimming;
    Alcotest.test_case "with_computed semantics" `Quick test_with_computed_classical_semantics;
    Alcotest.test_case "qdata wire roundtrip" `Quick test_qdata_roundtrip;
    Alcotest.test_case "qdata bool roundtrip" `Quick test_qdata_bool_roundtrip;
    Alcotest.test_case "generic qinit/measure" `Quick test_qinit_measure_generic;
    Alcotest.test_case "generic controlled_not" `Quick test_controlled_not_generic;
    Alcotest.test_case "shape mismatch detected" `Quick test_shape_mismatch;
    Alcotest.test_case "comment label strings" `Quick test_label_strings;
    Alcotest.test_case "surplus leaves refused" `Quick test_surplus_refused;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |]) prop_witnesses_match_reference;
    Alcotest.test_case "reference test meets every error text" `Quick test_witness_coverage;
    Alcotest.test_case "box defined once, called thrice" `Quick test_box_defines_once;
    Alcotest.test_case "aggregate count = inline count" `Quick test_box_inline_agrees;
    Alcotest.test_case "box with fresh outputs" `Quick test_box_creates_fresh_outputs;
    Alcotest.test_case "box leak detection" `Quick test_box_leak_detection;
    Alcotest.test_case "controlled box call" `Quick test_box_controlled_call;
    Alcotest.test_case "uncontrollable box" `Quick test_box_uncontrollable;
    Alcotest.test_case "reverse_simple inverts" `Quick test_reverse_simple_inverts;
    Alcotest.test_case "reverse across init/term" `Quick test_reverse_with_init_term;
    Alcotest.test_case "reverse rejects measurement" `Quick test_reverse_rejects_measurement;
    Alcotest.test_case "double circuit reverse" `Quick test_circuit_level_reverse_roundtrip;
    Alcotest.test_case "text printer" `Quick test_printer_output;
    Alcotest.test_case "ascii renderer" `Quick test_ascii_output;
    Alcotest.test_case "comments and labels" `Quick test_comment_labels;
    Alcotest.test_case "no-cloning names the first repeat" `Quick
      test_no_cloning_names_first_repeat;
    Alcotest.test_case "box leak error texts" `Quick test_box_leak_texts;
    QCheck_alcotest.to_alcotest prop_wires_match_reference;
    QCheck_alcotest.to_alcotest prop_distinct_matches_reference;
    QCheck_alcotest.to_alcotest prop_generated_circuits_validate;
    QCheck_alcotest.to_alcotest prop_reverse_validates;
    QCheck_alcotest.to_alcotest prop_double_reverse_identity;
  ]
