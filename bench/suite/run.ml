(* run.exe: one workload, one seed, one process.

     run.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
             [--scale full|smoke] [--trace-file PATH] [--out FILE]

   Prints the unnormalised times and the digest of operation 0's outputs
   as "# ..." comments, each metric as "name value unit", then, as the
   last line, the result object {"correct", "attempted", "failed",
   "metrics"}. With --trace 1 the metrics are the per-layer ones and the
   spans go to --trace-file; otherwise they are the end-to-end ones.
   --out appends the result, tagged with workload, seed, trace and
   digest, as one JSON line — the input compare.exe reads. *)

open Bench_suite

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let scale = ref Workloads.Full and trace_file = ref "" and out = ref "" in
  let usage =
    "run.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--scale \
     full|smoke] [--trace-file PATH] [--out FILE]"
  in
  let die msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let scale_of = function
    | "full" -> scale := Full
    | "smoke" -> scale := Smoke
    | s -> raise (Arg.Bad ("--scale must be full or smoke, not " ^ s))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run with spans");
      ("--scale", Arg.String scale_of, "full|smoke input sizes (default full)");
      ("--trace-file", Arg.Set_string trace_file, "PATH where --trace 1 writes spans");
      ("--out", Arg.Set_string out, "FILE append the result row here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let w = try Suite.find !workload with Invalid_argument msg -> die msg in
  let trace_file =
    if !trace = 0 then None
    else if !trace_file <> "" then Some !trace_file
    else Some (Printf.sprintf "bench/suite/out/trace-%s-%d.json" w.name !seed)
  in
  let r = Suite.run ~scale:!scale ~seed:!seed ~seconds:!seconds ~trace_file w in
  List.iter (fun (n, v, u) -> Printf.printf "# %s %s %s\n" n (Json.number v) u) r.raw;
  Printf.printf "# digest %s\n" r.digest;
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (Json.number v) u) r.metrics;
  let row = Suite.to_json r in
  if !out <> "" then begin
    let tagged =
      match row with
      | Json.Obj fields ->
          Json.Obj
            (("workload", Json.Str w.name)
            :: ("seed", Num (float_of_int !seed))
            :: ("trace", Num (float_of_int !trace))
            :: ("digest", Str r.digest)
            :: fields
            @ [ ("raw", Obj (List.map (fun (n, v, _) -> (n, Json.Num v)) r.raw)) ])
      | v -> v
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !out in
    output_string oc (Json.to_line tagged ^ "\n");
    close_out oc
  end;
  print_endline (Json.to_line row)
