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

let optimize (b : Circuit.b) =
  let measure b = (Gatecount.total_logical (Gatecount.aggregate b), Depth.depth b) in
  let gates_before, depth_before = measure b in
  let rules = Stream_opt.stats_create () in
  let t0 = Unix.gettimeofday () in
  let b' = Stream_opt.optimize_b ~window:max_int ~stats:rules b in
  let seconds = Unix.gettimeofday () -. t0 in
  let gates_after, depth_after = measure b' in
  ( b',
    [ { round = 1; gates_before; gates_after; depth_before; depth_after; seconds; rules } ] )

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
