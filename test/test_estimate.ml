(* The symbolic resource estimator ([Quipper_estimate]).

   [Gatecount], [Depth] and the estimator are projections of one engine
   ([Resource]), so the anchors are external: summary digests and depths
   pinned over a 200-program corpus and a boxed circuit, and every
   combinator ([seq], [repeat], [inverse], [controlled], [in_base])
   against the materialized circuit it models. Then the arbitrary-
   precision layer ([Wide]) is checked past native-int range, and the
   composed BWT/TF estimates are checked against the streamed whole
   algorithms — the small-parameter anchor of the scaled tables in
   EXPERIMENTS.md. *)

open Quipper
open Circ
module Gen = Quipper_testgen.Gen
module Estimate = Quipper_estimate.Estimate
module Wide = Quipper_estimate.Wide
module Qureg = Quipper_arith.Qureg

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Wide: arbitrary-precision naturals                                  *)

let test_wide_basics () =
  check "zero" true (Wide.is_zero Wide.zero && Wide.to_int_opt Wide.zero = Some 0);
  List.iter
    (fun x ->
      check "of_int roundtrip" true (Wide.to_int_opt (Wide.of_int x) = Some x);
      check "to_string = string_of_int" true
        (Wide.to_string (Wide.of_int x) = string_of_int x))
    [ 0; 1; 7; 999_999_999; 1_000_000_000; 123_456_789_012_345; max_int ];
  check "of_int negative raises" true
    (match Wide.of_int (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* add/mul against the int reference on a deterministic grid *)
  let xs = [ 0; 1; 2; 999_999_999; 1_000_000_001; 123_456_789 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check "add ref" true
            (Wide.to_int_opt (Wide.add (Wide.of_int a) (Wide.of_int b))
            = Some (a + b));
          check "mul ref" true
            (Wide.to_int_opt (Wide.mul (Wide.of_int a) (Wide.of_int b))
            = Some (a * b));
          check "compare ref" true
            (Wide.compare (Wide.of_int a) (Wide.of_int b) = compare a b))
        xs)
    xs;
  check "succ" true (Wide.equal (Wide.succ Wide.zero) Wide.one)

let test_wide_overflow () =
  let e18 = Wide.of_int 1_000_000_000_000_000_000 in
  let sq = Wide.mul e18 e18 in
  check "10^36 string" true
    (Wide.to_string sq = "1000000000000000000000000000000000000");
  check "10^36 does not fit" true (Wide.to_int_opt sq = None);
  check "max_int fits" true
    (Wide.to_int_opt (Wide.of_int max_int) = Some max_int);
  check "2*max_int does not fit" true
    (Wide.to_int_opt (Wide.mul_int (Wide.of_int max_int) 2) = None);
  check "max_ picks the bigger" true
    (Wide.equal (Wide.max_ e18 sq) sq && Wide.equal (Wide.max_ sq e18) sq)

(* ------------------------------------------------------------------ *)
(* The property corpus: symbolic = exact on random programs            *)

let qn = 5
let wshape n = Qdata.list_of n Qdata.qubit
let est_of ~n ops = Estimate.of_circ ~in_:(wshape n) (Gen.program_fun ops)

let counts_match v (exact : Gatecount.t) =
  let proj = Estimate.counts v in
  List.length proj = Gatecount.Counts.cardinal exact
  && List.for_all (fun (k, w) -> Wide.equal_int w (Gatecount.get exact k)) proj

let exact_t_count (s : Gatecount.summary) =
  Gatecount.Counts.fold
    (fun (k : Gatecount.key) c acc ->
      if k.Gatecount.kind = "T" && k.pos_controls = 0 && k.neg_controls = 0
      then acc + c
      else acc)
    s.Gatecount.counts 0

(* The corpus: program [i] is [Gen.sample ~seed:i]. [Gatecount], [Depth]
   and [Estimate] are projections of one engine, so comparing them on a
   circuit compares the engine with itself; the anchor is instead each
   program's [Gatecount.pp_summary] digest (the first 12 hex digits of
   its MD5) and [Depth.depth], recorded when the gate counter, the
   depth tracker and the estimator were three separate recursions that
   agreed on every seed. *)
let corpus_program seed = Gen.sample ~seed (Gen.program_gen ~n:qn ())

let summary_digest s =
  String.sub (Digest.to_hex (Digest.string (Fmt.str "%a" Gatecount.pp_summary s))) 0 12

let pinned_corpus = [|
  ("36a51468fc19", 14); ("41a00ae170aa", 6); ("2fd9045c1439", 5); ("4de0a51103a6", 8);
  ("512187e3f1ce", 11); ("46d834426ba4", 9); ("5553a1ef0954", 8); ("f230dfc431eb", 1);
  ("796fa5637a37", 1); ("fa3afd596676", 1); ("303176376192", 6); ("b9cb03818aab", 8);
  ("50e86276dd84", 3); ("f9ecfbdd863f", 2); ("ee60afd43608", 9); ("03d36bcc0dfc", 7);
  ("c37f6aaa1ad1", 10); ("db730d6cb2c5", 3); ("8a5c7ef2b6db", 2); ("53f6c9086d60", 2);
  ("f720366eda99", 13); ("9365f4c8cd72", 4); ("a29178d43491", 8); ("84a4adc85c15", 12);
  ("d64ec6d638f5", 2); ("197f121a0479", 10); ("df9875539868", 3); ("1f07379c153c", 8);
  ("56f1801b5b1e", 21); ("1c023152b89c", 14); ("9bd8f7e5041a", 4); ("ca0d8f4df3bb", 6);
  ("0860ef7f53de", 6); ("2b355eabdfa0", 7); ("ee23bdf1b6eb", 8); ("cea3bb08c773", 18);
  ("e0d5424474b1", 10); ("276fad02fd13", 6); ("08c70a84246e", 7); ("93e8ceceef34", 2);
  ("8be64be0b4c3", 12); ("305442bb18b7", 2); ("8ec569f7205f", 20); ("6bb14c3af990", 5);
  ("a589a5777767", 7); ("2ac5950cd9a7", 13); ("3f8d830b373e", 4); ("140ed6070d7a", 7);
  ("ffbbac92a347", 9); ("96f0c408742c", 2); ("1245541feca9", 17); ("a3a912f7e7b8", 2);
  ("ea016cd8a5f4", 8); ("847da84aee8e", 6); ("d4630b53a695", 9); ("8d78a8c14261", 2);
  ("d267fda63d9f", 9); ("b36af9122e0b", 3); ("6b1751a874da", 9); ("e4544949acda", 12);
  ("cc18d474278b", 6); ("6e5d162088e0", 7); ("1569ec56182a", 13); ("9de6beda586c", 4);
  ("f3c1d45efcf4", 5); ("4f7b939f7ea5", 8); ("50b41e18602c", 10); ("6a5d81c93776", 4);
  ("a5f1eda9cab8", 14); ("5f4ee3b8620d", 15); ("2db3bec3bf00", 8); ("63433cdec6d4", 8);
  ("a0552e4b2d33", 2); ("24d3ff9bbc03", 13); ("a166d82c90cd", 3); ("446a26b94e7b", 8);
  ("95d14a283057", 5); ("cd53d41001c2", 3); ("c3dcf0b4ac7a", 9); ("a20df52aa798", 2);
  ("87e02ff282f2", 2); ("cfead6941856", 2); ("031f4f8ff744", 6); ("796fa5637a37", 1);
  ("173be14d71e0", 2); ("a9a2f0895af4", 8); ("b162bd989d3d", 8); ("678c0e2d80a2", 9);
  ("8e30c88775da", 17); ("37aee22029b1", 6); ("15ad2467a8fe", 6); ("dd9c1cd040dc", 10);
  ("d7bc0504ffd9", 2); ("83f17bf4ab07", 5); ("61e6326e43a1", 3); ("bcd3ac179007", 4);
  ("44213b5901c9", 8); ("250532f66811", 15); ("f3d2e2e36d18", 15); ("c4ff921a5552", 5);
  ("2e4615ee99d9", 7); ("ede86218d306", 13); ("303cc2c3d366", 5); ("b2f020f43919", 1);
  ("98c3c4aaed3a", 7); ("2ca279c9bda4", 7); ("b68c295f7671", 13); ("19cd21cccff1", 3);
  ("b30cddce025d", 9); ("da7785fe889e", 12); ("f8f21bd118d6", 4); ("97848e514b6c", 8);
  ("bbdbc1ba1c2d", 1); ("3401b8a7e4f2", 3); ("980b2a5fdbd3", 24); ("fa3afd596676", 1);
  ("9a8014dda9be", 3); ("3ccf63e938e9", 14); ("39bd9ed8e847", 4); ("60f1bc6e6d72", 3);
  ("70d5d6d06aa0", 3); ("b7b494133597", 11); ("0ab0d119a70d", 7); ("3c1fb842d05c", 8);
  ("e2afd106166c", 5); ("92aaaa33c72a", 21); ("c666c749ccbc", 6); ("5e817051e6f5", 6);
  ("3dc411d3638d", 3); ("a724338adec4", 20); ("531f185fba41", 3); ("f0268dada604", 7);
  ("fa3afd596676", 1); ("b5da46d7213a", 2); ("3359c48cca64", 2); ("50e86276dd84", 2);
  ("57a986b3267d", 4); ("39f6c34bd143", 9); ("0b2957a29385", 7); ("8bf16a420a22", 2);
  ("5ef2a154d43e", 8); ("5233b674f4ed", 2); ("e95233b123f6", 3); ("5cefa991f7ce", 2);
  ("8fb74ed40cc2", 2); ("fdc496b71db3", 1); ("ff83093eccb9", 9); ("e5cfb481bdb7", 17);
  ("9cedb61211b6", 3); ("89b73f7cd0c7", 2); ("ee64d6daef81", 15); ("65370d8bc98f", 9);
  ("9d2338c1ed42", 8); ("9d8f60a867cb", 8); ("b81d46b3afcc", 19); ("d19cc5e31692", 14);
  ("6c6b00168dd0", 11); ("edd50b12fcd3", 2); ("fdc496b71db3", 1); ("31b2aaaa91f5", 16);
  ("a429691bd825", 8); ("fb2b971c92a7", 3); ("cee0addc6d67", 8); ("c6a76744d460", 8);
  ("0d6b39a30783", 11); ("fd146f089c13", 5); ("be8883aa6ad2", 2); ("ed078d1357d7", 1);
  ("670be0d539bc", 1); ("af399e11766c", 26); ("9ec69a041e2c", 11); ("5f374863a4ce", 3);
  ("a6b35e2124c6", 5); ("37a52f86c826", 4); ("e37fdba6e6d3", 9); ("6762d6ea6233", 5);
  ("333d08f6332a", 12); ("5973f8ee9b28", 6); ("5f374863a4ce", 3); ("9b784be06638", 10);
  ("8363653e412f", 6); ("872dc643a2b5", 1); ("e6541c649459", 5); ("0014a8fb3351", 7);
  ("2ee7109d6441", 13); ("6e9ba96bee11", 6); ("bbdbc1ba1c2d", 1); ("31aaa308f9b7", 17);
  ("835f73e5331a", 9); ("fa3afd596676", 1); ("6bcccd6ab665", 10); ("e1c376aa8e53", 2);
  ("d9af8489e41c", 4); ("3afaab2ed807", 5); ("1c7dd777d830", 18); ("9ec0babe7c63", 30);
  ("ae240a216c68", 3); ("18f2c30a5838", 9); ("4c05b4a0fb6e", 5); ("78bb785cc4fa", 6);
|]

let test_corpus_pinned () =
  Array.iteri
    (fun seed (digest, depth) ->
      let ops = corpus_program seed in
      let b = Gen.circuit_of_program ~n:qn ops in
      let s = Gatecount.summarize b in
      let v = Estimate.of_circuit b in
      let fail what = Alcotest.failf "seed %d: %s" seed what in
      if summary_digest s <> digest then fail "summary differs from the pinned one";
      if Depth.depth b <> depth then fail "depth differs from the pinned one";
      (* the streaming sink and the materialized walk build one vector *)
      if not (Estimate.equal v (est_of ~n:qn ops)) then fail "sink <> of_circuit";
      if not (Wide.equal_int (Estimate.t_count v) (exact_t_count s)) then
        fail "t-count";
      (* the by-class rollup partitions the total *)
      if
        not
          (Wide.equal
             (List.fold_left
                (fun acc (_, w) -> Wide.add acc w)
                Wide.zero (Estimate.by_class v))
             (Estimate.total v))
      then fail "by-class rollup")
    pinned_corpus

(* [inverse] against the counts of the materialized reversed circuit. *)
let prop_inverse =
  QCheck2.Test.make ~name:"corpus: inverse = Reverse (100)" ~count:100
    (Gen.program_gen ~n:qn ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:qn ops in
      let v = Estimate.inverse (Estimate.of_circuit b) in
      counts_match v (Gatecount.aggregate (Reverse.bcircuit b))
      && Estimate.in_arity v = List.length b.Circuit.main.Circuit.outputs
      && Estimate.out_arity v = List.length b.Circuit.main.Circuit.inputs)

let prop_controlled =
  QCheck2.Test.make ~name:"corpus: controlled = with_controls (100)"
    ~count:100
    (Gen.program_gen ~n:qn ())
    (fun ops ->
      (* the same program under one ambient positive control, materialized
         with an extra control qubit *)
      let bc, _ =
        Circ.generate
          ~in_:(wshape (qn + 1))
          (fun ql ->
            match ql with
            | c :: rest ->
                let* () =
                  with_controls [ ctl c ] (Gen.program ops (Array.of_list rest))
                in
                return ql
            | [] -> assert false)
      in
      let v = Estimate.controlled ~pos:1 (est_of ~n:qn ops) in
      counts_match v (Gatecount.aggregate bc))

(* [seq]/[repeat] against the materialized concatenation and loop. *)
let prop_compose =
  QCheck2.Test.make ~name:"corpus: seq/repeat = concatenated/looped (100)"
    ~count:100
    QCheck2.Gen.(pair (Gen.program_gen ~n:qn ()) (Gen.program_gen ~n:qn ()))
    (fun (ops1, ops2) ->
      let both, _ =
        Circ.generate ~in_:(wshape qn) (fun ql ->
            let* ql = Gen.program_fun ops1 ql in
            Gen.program_fun ops2 ql)
      in
      let looped k =
        let b, _ =
          Circ.generate ~in_:(wshape qn) (fun ql ->
              iterate k (Gen.program_fun ops1) ql)
        in
        b
      in
      let v1 = est_of ~n:qn ops1 and v2 = est_of ~n:qn ops2 in
      (* counts, peak and arities are exact under seq and repeat; depth
         composes as a bound, so it is not part of [agrees] *)
      Estimate.agrees (Estimate.seq v1 v2) (Gatecount.summarize both)
      && Estimate.agrees (Estimate.repeat 3 v1)
           (Gatecount.summarize (looped 3))
      && Estimate.agrees (Estimate.repeat 1 v1) (Gatecount.summarize (looped 1))
      && Wide.is_zero (Estimate.total (Estimate.repeat 0 v1)))

(* [in_base]: the symbolic transfer function against the real
   decomposition — counts exact (no controls cross box boundaries in
   flat programs), depth/peak sound bounds. *)
let prop_in_base base name =
  QCheck2.Test.make
    ~name:(Fmt.str "corpus: in_base %s = decompose_generic (80)" name)
    ~count:80
    (Gen.program_gen ~n:qn ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:qn ops in
      let d = Decompose.decompose_generic base b in
      let ds = Gatecount.summarize d in
      let v = Estimate.in_base base (Estimate.of_circuit b) in
      counts_match v ds.Gatecount.counts
      && Wide.equal_int (Estimate.total v) ds.Gatecount.total
      && (match Wide.to_int_opt (Estimate.depth_bound v) with
         | Some dep -> dep >= Depth.depth d
         | None -> true)
      && Estimate.peak_wires v >= ds.Gatecount.qubits)

(* ------------------------------------------------------------------ *)
(* Boxed circuits: calls, multiplicities, controlled and inverse calls *)

let boxed_ops =
  [ Gen.H 0; Gen.CNot (0, 1); Gen.T 2; Gen.Toffoli (0, true, 1, false, 3);
    Gen.Swap (2, 3) ]

let boxed_circuit () =
  let n = 4 in
  let w = wshape n in
  let step ql =
    Circ.box "step" ~in_:w ~out:w (Gen.program_fun boxed_ops) ql
  in
  let b, _ =
    Circ.generate
      ~in_:(wshape (n + 1))
      (fun ql ->
        match ql with
        | c :: rest ->
            let* rest = iterate 2 step rest in
            let* rest = with_controls [ ctl c ] (step rest) in
            let* rest = reverse_simple w step rest in
            return (c :: rest)
        | [] -> assert false)
  in
  b

(* [boxed_circuit]'s summary digest and depth, pinned like the corpus. *)
let boxed_pinned = ("0978cc190737", 16)

let test_boxed () =
  let b = boxed_circuit () in
  let s = Gatecount.summarize b in
  let v = Estimate.of_circuit b in
  check "boxed counts and depth pinned (plain, controlled and inverse calls)" true
    ((summary_digest s, Depth.depth b) = boxed_pinned);
  check "boxed estimate = summary" true (Estimate.agrees v s);
  let flat = Circuit.of_main (Circuit.inline b) in
  check "boxed depth bound >= exact inlined depth" true
    (match Wide.to_int_opt (Estimate.depth_bound v) with
    | Some d -> d >= Depth.depth flat
    | None -> false);
  check "boxed peak = inlined peak" true
    (Estimate.peak_wires v = Gatecount.peak_wires flat)

(* [boxed_circuit]'s per-box section, as [tf -f gatecount] prints it:
   recorded when each box was re-walked as a main circuit of its own. *)
let boxed_boxes_pinned =
  [ ( "step",
      "Aggregated gate count:\n1: \"H\"\n1: \"Not\", controls 1\n1: \"Not\", controls 1+1\n\
       1: \"T\"\n1: \"swap\"\nTotal gates: 5\nInputs: 4\nOutputs: 4\nQubits in circuit: 4\n" ) ]

let test_boxed_boxes () =
  let whole, boxes = Resource.report (boxed_circuit ()) in
  check "per-box summaries pinned" true
    (List.map (fun (name, v) -> (name, Fmt.str "%a" Gatecount.pp_summary (Gatecount.summary_of v))) boxes
    = boxed_boxes_pinned);
  check "the same run's whole vector = summarize" true
    (Estimate.agrees whole (Gatecount.summarize (boxed_circuit ())))

(* [controlled] re-keys a vector as a walk of the controlled circuit
   keys it: a gate's own controls first, then every ambient control in
   one fixed order, however the controls were nested. Here an inner box
   is called under a negative control inside an outer box, and the
   outer call gains a positive one: H's signature is [q+; q-], not the
   [q-; q+] that appending the new control would spell. *)
let test_controlled_rekey () =
  let q = Wire.qw in
  let sub inputs gates = { Circuit.circ = { Circuit.inputs; gates; outputs = inputs }; controllable = true } in
  let call name inputs controls = Gate.Subroutine { name; inv = false; inputs; outputs = inputs; controls } in
  let ctl w positive = { Gate.cwire = w; cty = Wire.Q; positive } in
  let subs =
    Circuit.Namespace.empty
    |> Circuit.Namespace.add "inner"
         (sub [ q 0 ] [| Gate.Gate { name = "H"; inv = false; targets = [ 0 ]; controls = [] } |])
    |> Circuit.Namespace.add "outer" (sub [ q 0; q 1 ] [| call "inner" [ 0 ] [ ctl 1 false ] |])
  in
  let boxed inputs gates =
    { Circuit.main = { Circuit.inputs; gates; outputs = inputs }; subs; sub_order = [ "inner"; "outer" ] }
  in
  let plain = boxed [ q 0; q 1 ] [| call "outer" [ 0; 1 ] [] |] in
  let controlled = boxed [ q 0; q 1; q 2 ] [| call "outer" [ 0; 1 ] [ ctl 2 true ] |] in
  let view (v : Estimate.t) =
    List.map
      (fun (x, (n, g)) -> (x, Wide.to_string n, Gate.to_string g))
      (Resource.Xmap.bindings v.Resource.counts)
  in
  let got = view (Estimate.controlled ~pos:1 (Estimate.of_circuit plain)) in
  check "controlled = walk of the controlled call, representatives included" true
    (got = view (Resource.of_circuit controlled));
  check "H keyed [q+; q-]" true
    (List.map (fun (x, _, _) -> x.Resource.Xkey.csig) got = [ [ (Wire.Q, true); (Wire.Q, false) ] ])

(* ------------------------------------------------------------------ *)
(* Past native-int range                                               *)

let test_scaled_totals () =
  let v = est_of ~n:3 [ Gen.H 0; Gen.CNot (0, 1) ] in
  check "base total" true (Wide.equal_int (Estimate.total v) 2);
  let tera = Estimate.repeat 1_000_000_000_000 v in
  check "10^12 repetitions" true
    (Wide.to_string (Estimate.total tera) = "2000000000000");
  (* 2 * 10^9 * 10^9 * 10^3 = 2*10^21 > max_int: only Wide can say it *)
  let huge =
    Estimate.repeat 1_000 (Estimate.repeat 1_000_000_000
        (Estimate.repeat 1_000_000_000 v))
  in
  check "2*10^21 exact decimal" true
    (Wide.to_string (Estimate.total huge) = "2000000000000000000000");
  check "2*10^21 does not fit an int" true
    (Wide.to_int_opt (Estimate.total huge) = None);
  check "peak unchanged by repetition" true
    (Estimate.peak_wires huge = Estimate.peak_wires v)

(* ------------------------------------------------------------------ *)
(* The composed algorithm estimates against the streamed exact counts  *)

let summary_and_depth circ =
  let (s, d), _ =
    Circ.run_streaming_unit circ (Sink.tee (Sink.gatecount ()) (Sink.depth ()))
  in
  (s, d)

let bwt_estimate ~(p : Algo_bwt.params) oracle =
  let m = Algo_bwt.label_width p in
  let prologue =
    Estimate.of_circ_unit (Qureg.init ~width:m Algo_bwt.entrance)
  in
  let step =
    Estimate.of_circ ~in_:(Qureg.shape m) (fun a ->
        let* () = Algo_bwt.walk_step ~p oracle a in
        return a)
  in
  let epilogue =
    Estimate.of_circ ~in_:(Qureg.shape m) (fun a ->
        Circ.measure (Qureg.shape m) a)
  in
  Estimate.seq prologue
    (Estimate.seq (Estimate.repeat p.Algo_bwt.s step) epilogue)

let test_bwt_composition () =
  List.iter
    (fun (name, mk) ->
      let p = { Algo_bwt.n = 2; s = 3; dt = Algo_bwt.default_params.Algo_bwt.dt } in
      let oracle = mk p in
      let s, d = summary_and_depth (Algo_bwt.whole ~p oracle) in
      let v = bwt_estimate ~p oracle in
      check (name ^ ": composed estimate = streamed exact") true
        (Estimate.agrees v s);
      check (name ^ ": depth bound >= streamed depth") true
        (match Wide.to_int_opt (Estimate.depth_bound v) with
        | Some dep -> dep >= d
        | None -> false))
    [ ("orthodox", Algo_bwt.orthodox_oracle); ("template", Algo_bwt.template_oracle) ]

let test_tf_composition () =
  let p = { Algo_tf.Oracle.l = 2; n = 2; r = 1 } in
  let s, d = summary_and_depth (Algo_tf.Qwtfp.a1_QWTFP ~p) in
  let prologue = Estimate.of_circ_unit (Algo_tf.Qwtfp.a1_prologue ~p) in
  let step =
    Estimate.of_circ ~in_:(Algo_tf.Qwtfp.regs_shape p) (fun regs ->
        Algo_tf.Qwtfp.a4_GCQWStep ~p regs)
  in
  let epilogue =
    Estimate.of_circ ~in_:(Algo_tf.Qwtfp.regs_shape p) (fun regs ->
        Algo_tf.Qwtfp.a1_epilogue ~p regs)
  in
  let v =
    Estimate.seq prologue
      (Estimate.seq
         (Estimate.repeat (Algo_tf.Qwtfp.r1_iterations p) step)
         epilogue)
  in
  check "tf: composed estimate = streamed exact" true (Estimate.agrees v s);
  check "tf: depth bound >= streamed depth" true
    (match Wide.to_int_opt (Estimate.depth_bound v) with
    | Some dep -> dep >= d
    | None -> false)

let suite =
  [
    Alcotest.test_case "wide: basics vs int reference" `Quick test_wide_basics;
    Alcotest.test_case "wide: past native-int range" `Quick test_wide_overflow;
    Alcotest.test_case
      "corpus: of_circuit/sink = summarize, pinned digests and depths (200)"
      `Quick test_corpus_pinned;
    QCheck_alcotest.to_alcotest prop_inverse;
    QCheck_alcotest.to_alcotest prop_controlled;
    QCheck_alcotest.to_alcotest prop_compose;
    QCheck_alcotest.to_alcotest (prop_in_base Decompose.Toffoli "toffoli");
    QCheck_alcotest.to_alcotest (prop_in_base Decompose.Binary "binary");
    Alcotest.test_case "boxed: calls, controls, inverses" `Quick test_boxed;
    Alcotest.test_case "boxed: per-box section pinned" `Quick test_boxed_boxes;
    Alcotest.test_case "controlled: nested controls keyed as walked" `Quick
      test_controlled_rekey;
    Alcotest.test_case "scaled: totals past int range" `Quick
      test_scaled_totals;
    Alcotest.test_case "bwt: composed = streamed, both oracles" `Quick
      test_bwt_composition;
    Alcotest.test_case "tf: composed = streamed" `Quick test_tf_composition;
  ]
