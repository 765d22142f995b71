(* The calibration loop: a fixed piece of work, made of this
   directory's code and the standard library only, that the suite times
   next to every measurement.

   The machines this suite runs on are shared. When neighbours load
   them, everything runs up to twice as slowly, for seconds or for
   minutes, and no run length averages that away. A measurement divided
   by the calibration time taken beside it cancels most of the
   slowdown, and no change to the system under test can move the
   calibration loop itself. Costs in this unit are reported as [ref]:
   one calibration loop takes 1.2 to 2 ms on a 2-core x86 VM, depending
   on how loaded the machine is.

   One loop streams a 4 MiB float array (memory traffic) and builds
   and folds short-lived lists (allocation and the minor GC), either on
   the calling domain or split across freshly spawned domains, as the
   service's batch fan-out does (spawn and join latency). A workload is
   normalised by the loop that runs the way its operations do. *)

module A = Bigarray.Array1

let cells = 1 lsl 19

let buffer =
  lazy
    (let b = A.create Bigarray.float64 Bigarray.c_layout cells in
     A.fill b 1.0;
     b)

(* The type annotation lets the compiler inline the array accesses. *)
let work (b : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t) ~lo ~hi ~lists =
  let s = ref 0. in
  for i = lo to hi - 1 do
    let x = A.unsafe_get b i in
    A.unsafe_set b i ((x *. 0.999) +. 0.001);
    s := !s +. x
  done;
  let acc = ref (int_of_float !s) in
  for k = 1 to lists do
    let l = List.init 500 (fun i -> (i, k)) in
    acc := List.fold_left (fun a (i, k) -> a + i + k) !acc (List.rev l)
  done;
  !acc

(* Seconds taken by one calibration loop: on the calling domain when
   [domains] is 1, else split across [domains] spawned ones. *)
let once ~domains =
  let b = Lazy.force buffer in
  let t0 = Unix.gettimeofday () in
  (if domains = 1 then ignore (Sys.opaque_identity (work b ~lo:0 ~hi:cells ~lists:100))
   else
     let part k =
       Domain.spawn (fun () ->
           work b ~lo:(k * cells / domains) ~hi:((k + 1) * cells / domains)
             ~lists:(100 / domains))
     in
     ignore (Sys.opaque_identity (List.map Domain.join (List.init domains part))));
  Unix.gettimeofday () -. t0

(* Loops per calibration: five at full scale, one at smoke scale, where
   times mean nothing. *)
let samples = ref 5

(* The machine's speed now: the median of [!samples] loops. The first
   loop after an operation runs on a cold cache and any loop can be
   preempted; the median is neither. *)
let time ~domains = Stat.median (List.init !samples (fun _ -> once ~domains))

(* Seconds per [ref] at the reference speed: the one-domain loop's median
   time over 80 runs on a 2-core x86 VM. [setup_s] is a set-up's cost
   converted to seconds with it, because the set-up time must be a time
   and must not move with the machine's load. *)
let reference_s = 1.75e-3

(* [repeat ~domains ~until f] calls [f 0], [f 1], ... with a calibration
   before the first call and after each one, until [until n elapsed]
   holds after [n] calls. [f] returns the seconds it measured. Returns
   each call's seconds and its cost: the seconds over the mean of the
   calibrations on either side.

   The samples go into unboxed arrays, not into a list: a value kept
   for the rest of the run but allocated amid an operation's garbage
   pins the heap pool it lands in, and the peak memory of the run would
   then grow with the number of operations. *)
let repeat ~domains ~until f =
  let seconds = ref (Float.Array.create 1024) and costs = ref (Float.Array.create 1024) in
  let store a i x =
    if i = Float.Array.length !a then begin
      let bigger = Float.Array.create (2 * i) in
      Float.Array.blit !a 0 bigger 0 i;
      a := bigger
    end;
    Float.Array.set !a i x
  in
  let t0 = Unix.gettimeofday () in
  let rec go i before =
    let s = f i in
    let after = time ~domains in
    store seconds i s;
    store costs i (s /. ((before +. after) /. 2.));
    if until (i + 1) (Unix.gettimeofday () -. t0) then
      let list a = List.init (i + 1) (Float.Array.get !a) in
      (list seconds, list costs)
    else go (i + 1) after
  in
  go 0 (time ~domains)
