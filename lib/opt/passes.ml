open Quipper

type stat = {
  round : int;
  gates_before : int;
  gates_after : int;
  depth_before : int;
  depth_after : int;
  seconds : float;
  rules : Stream_opt.stats;
}

(* A round changed the circuit iff some rule fired: cancellation,
   fusion, flips and constant deletions remove gates, dropped controls
   rewrite them, and nothing else touches the stream. Each firing
   removes a gate or a control, so the fixpoint loop terminates. *)
let fired (st : Stream_opt.stats) =
  st.cancelled + st.fused + st.flipped + st.const_controls + st.const_deleted
  > 0

let optimize (b : Circuit.b) =
  let measure b = (Gatecount.total_logical (Gatecount.aggregate b), Depth.depth b) in
  let rec rounds r b (gates_before, depth_before) stats =
    let rules = Stream_opt.stats_create () in
    let t0 = Unix.gettimeofday () in
    let b' = Stream_opt.optimize_b ~rounds:1 ~window:max_int ~stats:rules b in
    let seconds = Unix.gettimeofday () -. t0 in
    let ((gates_after, depth_after) as after) = measure b' in
    let stats =
      { round = r; gates_before; gates_after; depth_before; depth_after; seconds; rules }
      :: stats
    in
    if fired rules then rounds (r + 1) b' after stats else (b', List.rev stats)
  in
  rounds 1 b (measure b) []

let pp_stats ppf stats =
  Format.fprintf ppf "%5s %12s %12s %8s %7s %7s %9s@\n" "round" "gates before"
    "gates after" "removed" "depth" "depth'" "time";
  List.iter
    (fun s ->
      Format.fprintf ppf "%5d %12d %12d %8d %7d %7d %8.1fms@\n  %a@\n" s.round
        s.gates_before s.gates_after
        (s.gates_before - s.gates_after)
        s.depth_before s.depth_after (1000. *. s.seconds) Stream_opt.pp_stats
        s.rules)
    stats

let optimize_and_report ?(verbose = false) ppf (b : Circuit.b) =
  let before = Gatecount.summarize b in
  let depth_before = Depth.depth b in
  let b', stats = optimize b in
  let after = Gatecount.summarize b' in
  let depth_after = Depth.depth b' in
  Format.fprintf ppf "Before optimisation:@\n%a@\n" Gatecount.pp_summary before;
  if verbose then pp_stats ppf stats;
  Format.fprintf ppf "After optimisation:@\n%a@\n" Gatecount.pp_summary after;
  Format.fprintf ppf "Optimizer: removed %d of %d logical gates; depth %d -> %d@."
    (before.Gatecount.total_logical - after.Gatecount.total_logical)
    before.Gatecount.total_logical depth_before depth_after;
  b'
