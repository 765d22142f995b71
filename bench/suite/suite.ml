(* One benchmark run: set the workload up several times, run its closed
   loop for the given seconds, and turn the operations into metrics. *)

open Workloads

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  raw : (string * float * string) list;
      (** unnormalised times, printed for people; not metrics *)
  digest : string;  (** of operation 0's outputs *)
}

(* The kernel's VmHWM: peak resident memory of the whole process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Totals over the operations of a run, updated in place (see
   Calib.repeat for why nothing per operation is kept). *)
type totals = { mutable attempted : int; mutable failed : int; mutable digest : string }

(* Issue operations [first], [first+1], ... for [seconds] of wall time,
   always at least one, each between two calibrations and, when tracing,
   inside a root span. Returns each operation's seconds and cost in ref. *)
let loop (w : Workloads.t) op ~first ~seconds totals =
  Calib.repeat ~domains:w.calib_domains
    ~until:(fun _ elapsed -> elapsed >= seconds)
    (fun i ->
      Trace.call := first + i;
      let (o : Workloads.op) = Trace.span "suite" "operation" (fun () -> op (first + i)) in
      totals.attempted <- totals.attempted + o.attempted;
      totals.failed <- totals.failed + o.failed;
      if first + i = 0 then totals.digest <- o.digest;
      o.seconds)

(* Set up at least five times and for at least half a second (at most
   fifty times). Returns the last set-up's operation and the median
   set-up seconds and cost. Only the newest set-up is kept alive, so
   discarded ones do not add to the peak memory. *)
let setups (w : Workloads.t) ~scale ~seed =
  let last = ref None in
  let seconds, costs =
    Calib.repeat ~domains:1
      ~until:(fun n elapsed -> scale = Smoke || n >= 50 || (n >= 5 && elapsed >= 0.5))
      (fun _ ->
        last := None;
        let op, s = timed (fun () -> w.setup ~scale ~seed) in
        last := Some op;
        s)
  in
  (Option.get !last, Stat.median seconds, Stat.median costs)

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))

let run ~scale ~seed ~seconds ~trace_file (w : Workloads.t) =
  Quipper_sim.Kernel.num_domains := domains;
  Calib.samples := (match scale with Full -> 5 | Smoke -> 1);
  correct := true;
  let op, setup_raw_s, setup_cost = setups w ~scale ~seed in
  (* drop the discarded set-ups' garbage, whose amount depends on how
     many ran, so every loop starts from the same heap *)
  Gc.compact ();
  let totals = { attempted = 0; failed = 0; digest = "" } in
  let seconds, costs, metrics =
    match trace_file with
    | None ->
        let seconds, costs = loop w op ~first:0 ~seconds totals in
        ( seconds,
          costs,
          [
            ("setup_s", setup_cost *. Calib.reference_s, "s");
            ("op_p50_ref", Stat.median costs, "ref");
            ("peak_rss_mb", peak_rss_mb (), "MB");
          ] )
    | Some path ->
        (* the same loop untraced then traced, each for half the time;
           the gap between them is the tracing overhead *)
        let plain_s, plain = loop w op ~first:0 ~seconds:(seconds /. 2.) totals in
        Trace.enabled := true;
        let traced_s, traced =
          loop w op ~first:(List.length plain) ~seconds:(seconds /. 2.) totals
        in
        Trace.enabled := false;
        Trace.write path ~workload:w.name ~seed;
        let overhead = 100. *. ((Stat.median traced /. Stat.median plain) -. 1.) in
        ( plain_s @ traced_s,
          plain @ traced,
          Layers.probe ~scale ~seed @ [ ("trace.overhead_pct", overhead, "%") ] )
  in
  {
    correct = !correct;
    attempted = totals.attempted;
    failed = totals.failed;
    metrics;
    raw =
      [
        ("setup_raw_s", setup_raw_s, "s");
        ("op_p50_ms", 1e3 *. Stat.median seconds, "ms");
        ("calibration_ms", 1e3 *. Stat.median (List.map2 ( /. ) seconds costs), "ms");
        ("operations", float_of_int (List.length seconds), "count");
      ];
    digest = totals.digest;
  }

let to_json r =
  Json.Obj
    [
      ("correct", Bool r.correct);
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ( "metrics",
        Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.Obj [ ("value", Num value); ("unit", Str unit) ]))
             r.metrics) );
    ]
