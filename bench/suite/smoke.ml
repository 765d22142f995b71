(* The suite's own test, run by `dune runtest`: every workload at toy
   scale untraced, and one traced (the per-layer probes are the same
   whatever the workload). Every correctness check must pass, no request
   may fail, and each run must emit exactly the metrics BENCHMARK.json
   declares for it — so a library change that breaks the harness fails
   here rather than in the next benchmark run. *)

open Bench_suite

let () =
  let bench = Json.read_file Sys.argv.(1) in
  let names key =
    List.sort compare
      (List.map (fun m -> Json.(to_string (member "name" m))) Json.(to_list (member key bench)))
  in
  let problems = ref [] in
  let expect ok what = if not ok then problems := what :: !problems in
  expect
    (names "workloads"
    = List.sort compare (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
    "BENCHMARK.json declares other workloads than the suite runs";
  let t0 = Unix.gettimeofday () in
  let smoke (w : Workloads.t) key trace_file =
    let r = Suite.run ~scale:Smoke ~seed:7 ~seconds:0. ~trace_file w in
    let what = Printf.sprintf "%s (%s)" w.name key in
    expect r.correct (what ^ ": a correctness check failed");
    expect (r.attempted >= 1 && r.failed = 0) (what ^ ": requests failed");
    expect (r.digest <> "") (what ^ ": operation 0's outputs were not hashed");
    expect
      (List.sort compare (List.map (fun (n, _, _) -> n) r.metrics) = names key)
      (what ^ ": emitted metrics differ from BENCHMARK.json");
    expect
      (Json.parse (Json.to_line (Suite.to_json r)) = Suite.to_json r)
      (what ^ ": result does not survive a JSON round trip")
  in
  List.iter (fun w -> smoke w "end_to_end" None) Workloads.all;
  smoke (List.hd Workloads.all) "per_layer" (Some "smoke-trace.json");
  List.iter prerr_endline (List.rev !problems);
  Printf.printf "smoke: %d workloads, %d problems, %.2fs\n" (List.length Workloads.all)
    (List.length !problems) (Unix.gettimeofday () -. t0);
  exit (if !problems = [] then 0 else 1)
