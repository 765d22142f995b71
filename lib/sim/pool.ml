(* One job per [run] call. [next] hands out task indices; [pending]
   counts tasks not yet finished, and whoever finishes the last one
   wakes the caller. [seats] is how many more workers may join; it and
   the job list are guarded by [lock]. *)
type job = {
  f : int -> unit;
  n : int;
  next : int Atomic.t;
  pending : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable seats : int;
}

let lock = Mutex.create ()
let posted = Condition.create ()
let finished = Condition.create ()

(* jobs that still have seats, oldest first *)
let jobs : job list ref = ref []
let workers = ref 0
let max_workers = Domain.recommended_domain_count () - 1

let rec claim job =
  let i = Atomic.fetch_and_add job.next 1 in
  if i < job.n then begin
    (try job.f i
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set job.failure None (Some (e, bt))));
    if Atomic.fetch_and_add job.pending (-1) = 1 then
      Mutex.protect lock (fun () -> Condition.broadcast finished);
    claim job
  end

(* under [lock]: take a seat at the oldest job, waiting for one *)
let rec take () =
  match !jobs with
  | [] ->
      Condition.wait posted lock;
      take ()
  | job :: rest ->
      job.seats <- job.seats - 1;
      if job.seats = 0 then jobs := rest;
      job

let rec worker () =
  claim (Mutex.protect lock take);
  worker ()

let calls = Atomic.make 0
let runs () = Atomic.get calls

let run ~domains n f =
  Atomic.incr calls;
  let helpers = min max_workers (min domains n - 1) in
  if helpers <= 0 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let job =
      {
        f;
        n;
        next = Atomic.make 0;
        pending = Atomic.make n;
        failure = Atomic.make None;
        seats = helpers;
      }
    in
    Mutex.protect lock (fun () ->
        while !workers < helpers do
          ignore (Domain.spawn worker);
          incr workers
        done;
        jobs := !jobs @ [ job ];
        for _ = 1 to helpers do
          Condition.signal posted
        done);
    claim job;
    Mutex.protect lock (fun () ->
        (* every task is claimed: withdraw the unused seats, then wait
           only for tasks other domains are already running *)
        jobs := List.filter (fun j -> j != job) !jobs;
        while Atomic.get job.pending > 0 do
          Condition.wait finished lock
        done);
    Option.iter
      (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Atomic.get job.failure)
  end
