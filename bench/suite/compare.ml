(* compare.exe OLD NEW [BENCHMARK.json]

   OLD and NEW hold result rows, one JSON object per line, as run.exe
   --out appends them. For every workload and end-to-end metric this
   prints each side's median and quartiles over its untraced runs and a
   verdict against the metric's bound in BENCHMARK.json:

   - unresolved: either side's quartile spread exceeds the bound, unless
     every NEW run beats every OLD run (then: improved);
   - worse: NEW's median is worse than OLD's by more than the bound;
   - improved: NEW's median is better by more than OLD's quartile
     distance;
   - within bound: otherwise.

   Exits 1 on any "worse", on a rise in a workload's failed fraction
   (failed / attempted), on a NEW run whose checks failed, or when the
   two sides' outputs differ at a seed both ran (their digests). *)

open Bench_suite

let rows path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | "" -> go acc
    | line -> go (Json.parse line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  List.filter (fun r -> Json.(to_float (member "trace" r)) = 0.) (go [])

let of_workload w = List.filter (fun r -> Json.(to_string (member "workload" r)) = w)

let values name rows =
  List.map (fun r -> Json.(to_float (member "value" (member name (member "metrics" r))))) rows

let failed_frac rows =
  let sum k = List.fold_left (fun a r -> a +. Json.(to_float (member k r))) 0. rows in
  sum "failed" /. Float.max 1. (sum "attempted")

let () =
  let old_path, new_path, bench_path =
    match Array.to_list Sys.argv with
    | [ _; o; n ] -> (o, n, "BENCHMARK.json")
    | [ _; o; n; b ] -> (o, n, b)
    | _ ->
        prerr_endline "usage: compare.exe OLD NEW [BENCHMARK.json]";
        exit 2
  in
  let bench = Json.read_file bench_path in
  let workloads =
    List.map (fun w -> Json.(to_string (member "name" w))) Json.(to_list (member "workloads" bench))
  in
  let metrics =
    List.map
      (fun m ->
        Json.(to_string (member "name" m), to_string (member "better" m) = "lower",
              to_float (member "bound" m)))
      Json.(to_list (member "end_to_end" bench))
  in
  let old_rows = rows old_path and new_rows = rows new_path in
  let failing = ref false in
  Printf.printf "%-12s %-12s %28s %28s %8s  %s\n" "workload" "metric"
    "old median [q1, q3] (n)" "new median [q1, q3] (n)" "better" "verdict";
  List.iter
    (fun w ->
      let o = of_workload w old_rows and n = of_workload w new_rows in
      if o = [] || n = [] then
        Printf.printf "%-12s %s\n" w "no runs on one side: unresolved"
      else begin
        List.iter
          (fun (name, lower, bound) ->
            let ov = values name o and nv = values name n in
            let oq1, om, oq3 = Stat.quartiles ov and nq1, nm, nq3 = Stat.quartiles nv in
            (* positive = better, as a share of OLD's median *)
            let gain v = if lower then (om -. v) /. om else (v -. om) /. om in
            let all_better =
              List.for_all (fun x -> List.for_all (fun y -> gain x > gain y) ov) nv
            in
            let verdict =
              if (oq3 -. oq1) /. om > bound || (nq3 -. nq1) /. nm > bound then
                if all_better then "improved" else "unresolved"
              else if gain nm < -.bound then "worse"
              else if gain nm > (oq3 -. oq1) /. om then "improved"
              else "within bound"
            in
            if verdict = "worse" then failing := true;
            let side q1 m q3 k = Printf.sprintf "%.4g [%.4g, %.4g] (%d)" m q1 q3 k in
            Printf.printf "%-12s %-12s %28s %28s %+7.1f%%  %s\n" w name
              (side oq1 om oq3 (List.length ov))
              (side nq1 nm nq3 (List.length nv))
              (100. *. gain nm) verdict)
          metrics;
        let of_, nf = (failed_frac o, failed_frac n) in
        if nf > of_ then begin
          failing := true;
          Printf.printf "%-12s failed_frac rose from %g to %g\n" w of_ nf
        end;
        if List.exists (fun r -> not Json.(to_bool (member "correct" r))) n then begin
          failing := true;
          Printf.printf "%-12s a NEW run failed its correctness checks\n" w
        end;
        let digest r = Json.(to_string (member "digest" r)) in
        let seed r = Json.(to_float (member "seed" r)) in
        List.iter
          (fun nr ->
            match List.find_opt (fun orow -> seed orow = seed nr) o with
            | Some orow when digest orow <> digest nr ->
                failing := true;
                Printf.printf "%-12s outputs differ at seed %g\n" w (seed nr)
            | _ -> ())
          n
      end)
    workloads;
  exit (if !failing then 1 else 0)
