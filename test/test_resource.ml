(* The resource engine's walk against the reference model of its
   earlier, allocating form ([Resource_ref]): equal counts, equal
   representative gates, equal peak and depth, on the corpus, on
   generated algorithm circuits and on random boxed circuits with plain,
   controlled and inverse calls. Then hand cases for the key rules, and
   depth clocks past the native-int limit. *)

open Quipper
module Gen = Quipper_testgen.Gen
module Ref = Quipper_testgen.Resource_ref

let check = Alcotest.(check bool)

(* Everything a vector says, representatives printed. *)
let view (v : Resource.t) =
  ( List.map
      (fun (x, (n, g)) -> (x, Wide.to_string n, Gate.to_string g))
      (Resource.Xmap.bindings v.Resource.counts),
    (v.in_arity, v.out_arity, v.peak),
    Wide.to_string v.depth )

(* the reference's streamed walk, as a sink *)
let ref_sink () =
  let st = Ref.stream () in
  Sink.make ~on_inputs:(Ref.inputs st) ~on_gate:(Ref.gate st) ~on_subroutine_exit:(Ref.define st)
    ~finish:(fun outs -> Ref.finish st ~outputs:(List.length outs))
    ()

let agrees b =
  view (Resource.of_circuit b) = view (Ref.of_circuit b)
  && view (Sink.drive b (Sink.resource ())) = view (Sink.drive b (ref_sink ()))

(* ------------------------------------------------------------------ *)
(* Random boxed circuits, gate by gate                                 *)

(* Box [k] has [arity] input and output wires and works on [arity + 2];
   its gates may call boxes [0 .. k-1], under controls or inverted. *)
let control_gen nw =
  let open QCheck2.Gen in
  map3
    (fun cwire q positive -> { Gate.cwire; cty = (if q then Wire.Q else Wire.C); positive })
    (int_range 0 (nw - 1)) bool bool

let gate_gen ~nw ~(callees : (string * int) list) : Gate.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let wire = int_range 0 (nw - 1) in
  let ty = map (fun q -> if q then Wire.Q else Wire.C) bool in
  let controls = list_size (int_range 0 3) (control_gen nw) in
  let targets = list_size (int_range 1 2) wire in
  let gates =
    [
      ( 5,
        map4
          (fun name inv targets controls -> Gate.Gate { name; inv; targets; controls })
          (oneofl [ "not"; "Not"; "H"; "T"; "Rz"; "W"; "swap" ])
          bool targets controls );
      ( 2,
        map4
          (fun (name, angle) inv targets controls ->
            Gate.Rot { name; angle; inv; targets; controls })
          (pair (oneofl [ "Rz"; "Rx"; "exp(-i%Z)" ]) (float_bound_inclusive 3.))
          bool targets controls );
      (1, map2 (fun angle controls -> Gate.Phase { angle; controls }) (float_bound_inclusive 3.) controls);
      (1, map3 (fun ty value wire -> Gate.Init { ty; value; wire }) ty bool wire);
      (1, map3 (fun ty value wire -> Gate.Term { ty; value; wire }) ty bool wire);
      (1, map2 (fun ty wire -> Gate.Discard { ty; wire }) ty wire);
      (1, map (fun wire -> Gate.Measure { wire }) wire);
      ( 1,
        map3
          (fun name out ins -> Gate.Cgate { name; out; ins })
          (oneofl [ "xor"; "and"; "not" ]) wire (list_size (int_range 1 2) wire) );
      (1, return (Gate.Comment { text = "c"; labels = [] }));
    ]
  in
  let call =
    match callees with
    | [] -> []
    | _ ->
        [
          ( 4,
            let* name, arity = oneofl callees in
            let* inv = bool in
            let* inputs = list_repeat arity wire in
            let* controls = list_size (int_range 0 2) (control_gen nw) in
            return (Gate.Subroutine { name; inv; inputs; outputs = inputs; controls }) );
        ]
  in
  frequency (gates @ call)

let boxed_gen : Circuit.b QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* nboxes = int_range 0 4 in
  let rec boxes k acc =
    if k = nboxes then return (List.rev acc)
    else
      let* arity = int_range 1 3 in
      let callees = List.map (fun (name, a, _) -> (name, a)) acc in
      let* body = list_size (int_range 0 12) (gate_gen ~nw:(arity + 2) ~callees) in
      boxes (k + 1) ((Fmt.str "box%d" k, arity, body) :: acc)
  in
  let* defs = boxes 0 [] in
  let callees = List.map (fun (name, a, _) -> (name, a)) defs in
  let* main = list_size (int_range 0 20) (gate_gen ~nw:5 ~callees) in
  let ends n = List.init n Wire.qw in
  return
    {
      Circuit.main = { Circuit.inputs = ends 5; gates = Array.of_list main; outputs = ends 5 };
      subs =
        List.fold_left
          (fun subs (name, arity, body) ->
            Circuit.Namespace.add name
              {
                Circuit.circ =
                  { Circuit.inputs = ends arity; gates = Array.of_list body; outputs = ends arity };
                controllable = true;
              }
              subs)
          Circuit.Namespace.empty defs;
      sub_order = List.map (fun (name, _, _) -> name) defs;
    }

let prop_boxed =
  QCheck2.Test.make ~name:"engine = reference on random boxed circuits" ~count:400
    ~print:Printer.to_string boxed_gen agrees

(* the 200-program corpus, flat and boxed, and generated algorithms *)
let test_corpus () =
  let n = 5 in
  let w = Qdata.list_of n Qdata.qubit in
  for seed = 0 to 199 do
    let ops = Gen.sample ~seed (Gen.program_gen ~n ()) in
    let p = Circ.box "p" ~in_:w ~out:w (Gen.program_fun ops) in
    let boxed, _ =
      Circ.generate ~in_:(Qdata.pair w Qdata.qubit) (fun (qs, c) ->
          Circ.(
            let* qs = p qs in
            let* qs = with_controls [ ctl_neg c ] (p qs) in
            let* qs = reverse_simple w p qs in
            return (qs, c)))
    in
    List.iter
      (fun b -> if not (agrees b) then Alcotest.failf "corpus program %d differs" seed)
      [ Gen.circuit_of_program ~n ops; boxed ]
  done;
  let p = { Algo_bwt.n = 3; s = 2; dt = 0.1 } in
  List.iter
    (fun (name, b) -> check name true (agrees b))
    [
      ("BWT orthodox", Algo_bwt.generate ~p ~which:`Orthodox ());
      ("BWT template", Algo_bwt.generate ~p ~which:`Template ());
      ("TF pow17", Algo_tf.Qwtfp.generate_pow17 ~p:{ Algo_tf.Oracle.l = 4; n = 3; r = 2 } ());
      ("TF whole", Algo_tf.Qwtfp.generate ~p:{ Algo_tf.Oracle.l = 3; n = 2; r = 2 } ());
    ]

(* ------------------------------------------------------------------ *)
(* Hand cases                                                          *)

let flat gates =
  let ends = List.init 4 Wire.qw in
  { Circuit.main = { Circuit.inputs = ends; gates = Array.of_list gates; outputs = ends };
    subs = Circuit.Namespace.empty; sub_order = [] }

let gate ?(inv = false) ?(controls = []) name targets = Gate.Gate { name; inv; targets; controls }
let ctl ?(q = true) ?(positive = true) w = { Gate.cwire = w; cty = (if q then Wire.Q else Wire.C); positive }

(* the counts as (kind, count, printed representative), in key order *)
let counts b =
  let c = (Resource.of_circuit b).Resource.counts in
  List.map (fun (x, (n, g)) -> (x.Resource.Xkey.kind, Wide.to_string n, Gate.to_string g))
    (Resource.Xmap.bindings c)

let test_hand_keys () =
  let rot = Gate.Rot { name = "Rz"; angle = 0.5; inv = false; targets = [ 1 ]; controls = [] } in
  let b = flat [ gate "Rz" [ 0 ]; rot; gate "Rz" [ 2 ] ] in
  check "Gate Rz and Rot Rz share a key, the first gate represents it" true
    (counts b = [ ("Rz", "3", Gate.to_string (gate "Rz" [ 0 ])) ] && agrees b);
  let b = flat [ gate "not" [ 0 ]; gate "Not" [ 1 ]; gate "X" [ 2 ] ] in
  check "not counts as Not" true
    (counts b = [ ("Not", "2", Gate.to_string (gate "not" [ 0 ])); ("X", "1", Gate.to_string (gate "X" [ 2 ])) ]
    && agrees b);
  (* one control set in every order: each order is its own key *)
  let cs = [ ctl 1; ctl ~q:false 2; ctl ~positive:false 3 ] in
  let orders = [ cs; List.rev cs; [ List.nth cs 1; List.hd cs; List.nth cs 2 ] ] in
  let gates = List.concat_map (fun controls -> [ gate "H" [ 0 ] ~controls; gate "H" [ 0 ] ~controls ]) orders in
  let b = flat gates in
  check "control order is part of the key" true
    (List.map (fun (_, n, _) -> n) (counts b) = [ "2"; "2"; "2" ] && agrees b);
  (* mixed kinds, signs and call directions under a controlled call *)
  let body =
    [| gate "H" [ 0 ] ~controls:[ ctl ~q:false 1 ]; gate "T" [ 0 ] ~inv:true;
       Gate.Measure { wire = 1 }; Gate.Cgate { name = "xor"; out = 1; ins = [ 0 ] };
       Gate.Init { ty = Wire.C; value = true; wire = 1 } |]
  in
  let two = [ Wire.qw 0; Wire.qw 1 ] in
  let sub = { Circuit.circ = { Circuit.inputs = two; gates = body; outputs = two }; controllable = true } in
  let call ?(inv = false) controls =
    Gate.Subroutine { name = "s"; inv; inputs = [ 0; 1 ]; outputs = [ 0; 1 ]; controls }
  in
  let b =
    { (flat [ call []; call [ ctl 2; ctl ~q:false ~positive:false 3 ]; call ~inv:true [ ctl ~positive:false 2 ];
              gate "H" [ 0 ] ~controls:[ ctl ~q:false 1 ] ])
      with Circuit.subs = Circuit.Namespace.add "s" sub Circuit.Namespace.empty; sub_order = [ "s" ] }
  in
  check "calls under mixed controls" true (agrees b)

(* ------------------------------------------------------------------ *)
(* Depth past the native limit                                         *)

(* [Test_gatecount.doubling_tree levels] has depth 2^(levels-1) on wire
   0. Around one call of its top box on each of two wires, flat gates,
   a termination and a re-initialisation: wire 1 restarts from 0, so
   the depth is 2^(levels-1) + 3, not 2^levels + 5. *)
let past_limit levels =
  let b = Test_gatecount.doubling_tree levels in
  let top = Fmt.str "level%d" (levels - 1) in
  let call w = Gate.Subroutine { name = top; inv = false; inputs = [ w ]; outputs = [ w ]; controls = [] } in
  let ends = [ Wire.qw 0; Wire.qw 1 ] in
  let gates =
    [| gate "H" [ 1 ]; call 0; gate "not" [ 0 ] ~controls:[ ctl 1 ];
       Gate.Term { ty = Wire.Q; value = false; wire = 1 }; Gate.Init { ty = Wire.Q; value = false; wire = 1 };
       gate "H" [ 1 ]; gate "H" [ 1 ]; call 1; gate "X" [ 0 ] |]
  in
  { b with Circuit.main = { Circuit.inputs = ends; gates; outputs = ends } }

let test_depth_limit () =
  let raises what f =
    match f () with
    | exception Errors.Error (Errors.Invalid msg) ->
        check (what ^ " names --estimate") true (Astring_contains.contains msg "--estimate")
    | d -> Alcotest.failf "%s: %d instead of raising" what d
  in
  (* 2^61 is the native clocks' limit: every clock past the first call is exact *)
  let b = past_limit 62 in
  Alcotest.(check string) "exact depth, 2^61 + 3" "2305843009213693955"
    (Wide.to_string (Resource.of_circuit b).Resource.depth);
  check "levels 62: engine = reference" true (agrees b);
  Alcotest.(check int) "Depth.depth fits" ((1 lsl 61) + 3) (Depth.depth b);
  Alcotest.(check int) "Sink.depth fits" ((1 lsl 61) + 3) (Sink.drive b (Sink.depth ()));
  let b = past_limit 63 in
  Alcotest.(check string) "exact depth, 2^62 + 3" "4611686018427387907"
    (Wide.to_string (Resource.of_circuit b).Resource.depth);
  check "levels 63: engine = reference" true (agrees b);
  raises "Depth.depth" (fun () -> Depth.depth b);
  raises "Sink.depth" (fun () -> Sink.drive b (Sink.depth ()))

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_boxed;
    Alcotest.test_case "engine = reference on the corpus and algorithms" `Quick test_corpus;
    Alcotest.test_case "keys: Gate/Rot, not/Not, control order" `Quick test_hand_keys;
    Alcotest.test_case "depth past the native limit" `Quick test_depth_limit;
  ]
