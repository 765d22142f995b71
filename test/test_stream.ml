(* Differential tests for the streaming emission path: on random
   circuits, every streaming sink must agree *exactly* with its
   materialized counterpart — gate counts structurally, printed text
   byte for byte, simulated amplitudes bit for bit. Plus regressions
   pinning the event order for boxed/controlled subcircuits and the
   retain machinery under [with_computed]. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ
module Backend = Quipper_sim.Backend
module Sv = Quipper_sim.Statevector
module Fuse = Quipper_sim.Fuse

let check = Alcotest.(check bool)
let n = 4
let in_ = Qdata.list_of n Qdata.qubit

(* Run the identical monadic computation both ways. *)
let materialized ops = Gen.circuit_of_program ~n ops
let streamed ops sink = fst (Circ.run_streaming ~in_ (Gen.program_fun ops) sink)

(* ------------------------------------------------------------------ *)
(* The four sinks vs their materialized counterparts                   *)

let prop_gatecount =
  QCheck2.Test.make
    ~name:"streaming gatecount equals Gatecount.summarize (200 circuits)"
    ~count:200
    (Gen.program_gen ~n ())
    (fun ops ->
      let b = materialized ops in
      let s = streamed ops (Sink.gatecount ()) in
      let reference = Gatecount.summarize b in
      s = reference
      && Fmt.str "%a" Gatecount.pp_summary s
         = Fmt.str "%a" Gatecount.pp_summary reference)

let prop_depth =
  QCheck2.Test.make
    ~name:"streaming depth equals Depth.depth (200 circuits)" ~count:200
    (Gen.program_gen ~n ())
    (fun ops ->
      let b = materialized ops in
      streamed ops (Sink.depth ()) = Depth.depth b)

let prop_print =
  QCheck2.Test.make
    ~name:"streaming print is byte-identical to Printer (200 circuits)"
    ~count:200
    (Gen.program_gen ~n ())
    (fun ops ->
      let b = materialized ops in
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      let () = streamed ops (Sink.printer ppf) in
      Buffer.contents buf = Printer.to_string b)

let prop_simulate =
  QCheck2.Test.make
    ~name:
      "streaming statevector simulation is bit-for-bit materialized (200 \
       circuits)"
    ~count:200
    QCheck2.Gen.(pair (Gen.program_gen ~n ()) (list_repeat n bool))
    (fun (ops, inputs) ->
      let b = materialized ops in
      let reference =
        Backend.Statevector.observe
          (Backend.Statevector.run_circuit ~seed:7 b inputs)
      in
      (* polymorphic [=], not up-to-phase: the streaming run must apply
         the exact same floating-point kernel sequence *)
      streamed ops (Backend.sink (module Backend.Statevector) ~seed:7 ~inputs ())
      = reference)

let prop_tee =
  QCheck2.Test.make
    ~name:"tee-ed sinks see the same stream as solo runs" ~count:50
    (Gen.program_gen ~n ())
    (fun ops ->
      let counts, depth = streamed ops (Sink.tee (Sink.gatecount ()) (Sink.depth ())) in
      counts = streamed ops (Sink.gatecount ())
      && depth = streamed ops (Sink.depth ()))

(* ------------------------------------------------------------------ *)
(* Event-order regression: boxed, controlled subcircuits               *)

(* Two nested boxes, the outer one called under [with_controls] and
   once inverted via the sandwich below: the streamed gate sequence and
   collected namespace must be exactly what [Circ.generate] buffers. *)
let inner q =
  let* q = hadamard q in
  let* q = gate_T q in
  return q

let outer q =
  let* q = box "inner" ~in_:Qdata.qubit ~out:Qdata.qubit inner q in
  let* q = box "inner" ~in_:Qdata.qubit ~out:Qdata.qubit inner q in
  qnot q

let boxed_prog (a, b2) =
  let call = box "outer" ~in_:Qdata.qubit ~out:Qdata.qubit outer in
  let* a = call a in
  let* a = with_controls [ ctl b2 ] (call a) in
  let* () = cnot ~control:a ~target:b2 in
  return (a, b2)

let test_boxed_stream_order () =
  let shape = Qdata.pair Qdata.qubit Qdata.qubit in
  let b, _ = Circ.generate ~in_:shape boxed_prog in
  let streamed, _ = Circ.run_streaming ~in_:shape boxed_prog (Sink.circuit ()) in
  let subs = streamed.Circuit.subs and sub_order = streamed.Circuit.sub_order in
  check "streamed gates equal the buffered main circuit" true
    (streamed.Circuit.main.Circuit.gates = b.Circuit.main.Circuit.gates);
  check "definition order matches (innermost first)" true
    (sub_order = b.Circuit.sub_order);
  check "collected namespace equals the buffered one" true
    (Circuit.Namespace.equal ( = ) subs b.Circuit.subs);
  check "the regression is non-trivial: two defs, nested" true
    (List.length sub_order = 2 && List.mem "inner" sub_order
    && List.mem "outer" sub_order)

(* ------------------------------------------------------------------ *)
(* Retain-machinery regression: with_computed in streaming mode        *)

(* The compute half must stay buffered (it is re-read to emit the
   uncompute half) even though the run does not materialize; nested
   sandwiches exercise the retain counter. *)
let sandwich_prog ql =
  let qs = Array.of_list ql in
  let* () =
    with_computed
      (let* () = cnot ~control:qs.(0) ~target:qs.(1) in
       with_computed
         (hadamard_ qs.(2))
         (fun () -> cnot ~control:qs.(2) ~target:qs.(3)))
      (fun () -> qnot_ qs.(3))
  in
  return ql

let test_with_computed_stream () =
  let b, _ = Circ.generate ~in_:in_ sandwich_prog in
  let gates, _ =
    Circ.run_streaming ~in_ sandwich_prog (Sink.gates ())
  in
  check "streamed sandwich equals the buffered gate sequence" true
    (gates = Array.to_list b.Circuit.main.Circuit.gates);
  let counts, _ =
    Circ.run_streaming ~in_ sandwich_prog (Sink.gatecount ())
  in
  check "streaming count agrees on the sandwich" true
    (counts = Gatecount.summarize b)

(* Ancilla blocks in the random generator also route through
   reverse_fun; pin that the whole generator family streams the same
   gate list it buffers. *)
let prop_stream_order =
  QCheck2.Test.make
    ~name:"streamed gate sequence equals the buffered one (200 circuits)"
    ~count:200
    (Gen.program_gen ~n ())
    (fun ops ->
      let b = materialized ops in
      streamed ops (Sink.gates ()) = Array.to_list b.Circuit.main.Circuit.gates)

(* ------------------------------------------------------------------ *)
(* Unbox + simulation on a hierarchical circuit                        *)

let test_boxed_simulation () =
  let shape = Qdata.pair Qdata.qubit Qdata.qubit in
  let b, _ = Circ.generate ~in_:shape boxed_prog in
  let inputs = [ true; false ] in
  let reference =
    Backend.Statevector.observe
      (Backend.Statevector.run_circuit ~seed:3 b inputs)
  in
  let obs, _ =
    Circ.run_streaming ~in_:shape boxed_prog
      (Backend.sink (module Backend.Statevector) ~seed:3 ~inputs ())
  in
  check "streamed boxed circuit simulates up to phase like materialized"
    true
    (Backend.equal_observation obs reference)

(* ------------------------------------------------------------------ *)
(* One box table: every walker expands calls alike                     *)

(* A random program boxed as "step" over [n] wires, called plainly
   twice, under a control and inverted — the shape of [boxed_circuit]
   in test_estimate.ml. *)
let boxed_random ops =
  let w = Qdata.list_of n Qdata.qubit in
  let step = box "step" ~in_:w ~out:w (Gen.program_fun ops) in
  fst
    (Circ.generate
       ~in_:(Qdata.list_of (n + 1) Qdata.qubit)
       (fun ql ->
         match ql with
         | c :: rest ->
             let* rest = step rest in
             let* rest = step rest in
             let* rest = with_controls [ ctl c ] (step rest) in
             let* rest = reverse_simple w step rest in
             return (c :: rest)
         | [] -> assert false))

(* [a] and [b] agree gate for gate up to a bijective renaming of the
   wires internal to calls; wires of the main circuit keep their ids. *)
let equal_up_to_internal_wires (a : Gate.t list) (b : Gate.t list) ~main =
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let pair (x : Wire.endpoint) (y : Wire.endpoint) =
    match (Hashtbl.find_opt fwd x.Wire.wire, Hashtbl.find_opt bwd y.Wire.wire) with
    | Some y', _ -> y' = y.Wire.wire
    | None, Some _ -> false
    | None, None ->
        let internal = not (List.mem x.Wire.wire main) in
        (internal || x.Wire.wire = y.Wire.wire)
        && begin
             Hashtbl.add fwd x.Wire.wire y.Wire.wire;
             Hashtbl.add bwd y.Wire.wire x.Wire.wire;
             true
           end
  in
  List.length a = List.length b
  && List.for_all2
       (fun ga gb ->
         let wa = Gate.wires ga and wb = Gate.wires gb in
         List.length wa = List.length wb
         && List.for_all2 pair wa wb
         && Gate.rename (Hashtbl.find fwd) ga = gb)
       a b

let prop_box_table_agreement =
  QCheck2.Test.make
    ~name:"box calls: Sink.unbox = Circuit.inline, Fuse = Statevector (60)"
    ~count:60
    QCheck2.Gen.(pair (Gen.program_gen ~n ~max_ops:8 ()) (list_repeat (n + 1) bool))
    (fun (ops, inputs) ->
      let b = boxed_random ops in
      let flat = Circuit.inline b in
      let main =
        List.concat_map
          (fun g -> List.map (fun (e : Wire.endpoint) -> e.Wire.wire) (Gate.wires g))
          (Array.to_list b.Circuit.main.Circuit.gates)
        @ List.map (fun (e : Wire.endpoint) -> e.Wire.wire) b.Circuit.main.Circuit.inputs
      in
      let reference = Sv.amplitudes (Sv.run_circuit ~seed:5 (Circuit.of_main flat) inputs) in
      let fused = Fuse.amplitudes (Fuse.run_circuit ~seed:5 b inputs) in
      equal_up_to_internal_wires ~main
        (Sink.drive b (Sink.unbox (Sink.gates ())))
        (Array.to_list flat.Circuit.gates)
      && Array.length fused = Array.length reference
      && Array.for_all2
           (fun x y -> Quipper_math.Cplx.(norm (sub x y)) <= 1e-9)
           fused reference)

(* ------------------------------------------------------------------ *)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_gatecount;
    QCheck_alcotest.to_alcotest prop_depth;
    QCheck_alcotest.to_alcotest prop_print;
    QCheck_alcotest.to_alcotest prop_simulate;
    QCheck_alcotest.to_alcotest prop_tee;
    QCheck_alcotest.to_alcotest prop_stream_order;
    Alcotest.test_case "boxed+controlled stream order" `Quick
      test_boxed_stream_order;
    Alcotest.test_case "with_computed streams its buffered sequence" `Quick
      test_with_computed_stream;
    Alcotest.test_case "boxed circuit: streaming simulation" `Quick
      test_boxed_simulation;
    QCheck_alcotest.to_alcotest prop_box_table_agreement;
  ]
