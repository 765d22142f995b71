(* The shared keyed memo ([Quipper_sim.Memo]) behind Fuse's box cache,
   Stream_opt's skeleton memo and the shot service's caches: one
   computation per key however many domains race for it, failures that
   re-raise and leave the key retryable, and LRU eviction under a
   capacity. *)

module Memo = Quipper_sim.Memo
module Pool = Quipper_sim.Pool

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* long enough that racing callers find the key in flight *)
let spin () =
  for _ = 1 to 200_000 do
    ignore (Sys.opaque_identity ())
  done

let test_single_flight () =
  List.iter
    (fun domains ->
      let keys = 4 and callers = 16 in
      let m = Memo.create () in
      let computed = Array.init keys (fun _ -> Atomic.make 0) in
      let got = Array.make callers (-1) in
      Pool.run ~domains callers (fun i ->
          let k = i mod keys in
          let v, _ =
            Memo.find_or_compute m k (fun () ->
                Atomic.incr computed.(k);
                spin ();
                k * 10)
          in
          got.(i) <- v);
      let st = Memo.stats m in
      let label = Printf.sprintf "%d domains: " domains in
      check (label ^ "each key computed once") true
        (Array.for_all (fun c -> Atomic.get c = 1) computed);
      check (label ^ "every caller got its key's value") true
        (Array.for_all Fun.id (Array.mapi (fun i v -> v = i mod keys * 10) got));
      checki (label ^ "one miss per key") keys st.Memo.misses;
      checki (label ^ "the other callers hit") (callers - keys) st.Memo.hits;
      checki (label ^ "entries") keys st.Memo.entries)
    [ 1; 2; 4; 8 ]

let test_failure_retry () =
  let m = Memo.create () in
  let raised =
    match Memo.find_or_compute m "k" (fun () -> failwith "boom") with
    | _ -> false
    | exception Failure msg -> msg = "boom"
  in
  check "the computation's exception reaches its caller" true raised;
  check "the key is retryable" true
    (Memo.find_or_compute m "k" (fun () -> 7) = (7, false));
  check "then cached" true (Memo.find_or_compute m "k" (fun () -> 8) = (7, true));
  checki "two misses, the failed one included" 2 (Memo.stats m).Memo.misses;
  check "a key that depends on itself raises instead of waiting" true
    (match
       Memo.find_or_compute m "self" (fun () ->
           fst (Memo.find_or_compute m "self" (fun () -> 0)))
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_failure_racing () =
  let m = Memo.create () in
  let failed = Array.make 8 false in
  Pool.run ~domains:8 8 (fun i ->
      failed.(i) <-
        (match
           Memo.find_or_compute m () (fun () ->
               spin ();
               failwith "always")
         with
        | _ -> false
        | exception Failure _ -> true));
  check "all 8 racing callers get the error" true (Array.for_all Fun.id failed);
  let st = Memo.stats m in
  check "each computed and failed; nothing cached" true
    (st.Memo.misses = 8 && st.Memo.hits = 0 && st.Memo.entries = 0)

let test_lru () =
  let m = Memo.create ~capacity:2 () in
  let get k = Memo.find_or_compute m k (fun () -> String.uppercase_ascii k) in
  ignore (get "a");
  ignore (get "b");
  check "hit refreshes a" true (snd (get "a"));
  ignore (get "c");
  (* b was least recently used *)
  let st = Memo.stats m in
  checki "one eviction" 1 st.Memo.evictions;
  checki "at capacity" 2 st.Memo.entries;
  check "a survived" true (snd (get "a"));
  check "c survived" true (snd (get "c"));
  check "b was evicted and recomputes" true (get "b" = ("B", false));
  checki "re-inserting b evicted the next LRU" 2 (Memo.stats m).Memo.evictions;
  List.iter
    (fun capacity ->
      check
        (Printf.sprintf "capacity %d rejected" capacity)
        true
        (match Memo.create ~capacity () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -1 ]

let suite =
  [
    Alcotest.test_case "one computation per key at 1/2/4/8 domains" `Quick
      test_single_flight;
    Alcotest.test_case "a raising computation leaves the key retryable" `Quick
      test_failure_retry;
    Alcotest.test_case "8 racing callers of a failing key all fail" `Quick
      test_failure_racing;
    Alcotest.test_case "LRU eviction and capacity check" `Quick test_lru;
  ]
