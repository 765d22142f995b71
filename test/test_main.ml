(* Test runner: every suite in one alcotest binary ([dune runtest]). *)

let () =
  Alcotest.run "quipper"
    [
      ("math", Test_math.suite);
      ("core", Test_core.suite);
      ("gatecount", Test_gatecount.suite);
      ("transform", Test_transform.suite);
      ("sim", Test_sim.suite);
      ("template", Test_template.suite);
      ("arith", Test_arith.suite);
      ("primitives", Test_primitives.suite);
      ("algorithms", Test_algorithms.suite);
      ("depth", Test_depth.suite);
      ("parser", Test_parser.suite);
      ("allocate", Test_allocate.suite);
      ("alternatives", Test_alternatives.suite);
      ("noise", Test_noise.suite);
      ("differential", Test_differential.suite);
      ("backend", Test_backend.suite);
      ("opt", Test_opt.suite);
      ("stream_opt", Test_stream_opt.suite);
      ("stream", Test_stream.suite);
      ("fuse", Test_fuse.suite);
      ("frame", Test_frame.suite);
      ("serve", Test_serve.suite);
      ("pool", Test_pool.suite);
      ("memo", Test_memo.suite);
      ("sweep", Test_sweep.suite);
      ("estimate", Test_estimate.suite);
      ("resource", Test_resource.suite);
      ("live", Test_live.suite);
      ("cli", Test_cli.suite);
    ]
