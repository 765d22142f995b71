(* Spans around the suite's calls into each layer's public functions.

   Off by default; when off, [span] is one branch and a call. Spans are
   kept in memory and written once, at exit. Every span belongs to the
   closed-loop operation ([call]) that was running when it opened, and
   nests under the innermost span still open, so a span's self time is
   its duration minus the time its direct children cover. *)

type span = {
  id : int;
  name : string;
  layer : string;
  call : int;
  parent : int;  (** [-1] at the root *)
  start : float;
  stop : float;
}

let enabled = ref false
let call = ref 0
let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let span layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      spans := { id; name; layer; call = !call; parent; start; stop } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Self seconds summed by layer, sorted by layer name. *)
let self_by_layer () =
  let covered = Hashtbl.create 64 and self = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s -> if s.parent >= 0 then add covered s.parent (s.stop -. s.start))
    !spans;
  List.iter
    (fun s ->
      add self s.layer
        (s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    !spans;
  List.sort compare (Hashtbl.fold (fun l t acc -> (l, t) :: acc) self [])

let write path ~workload ~seed =
  let t0 = match List.rev !spans with s :: _ -> s.start | [] -> 0. in
  let span_json s =
    Json.Obj
      [
        ("id", Num (float_of_int s.id));
        ("name", Str s.name);
        ("layer", Str s.layer);
        ("call", Num (float_of_int s.call));
        ("parent", Num (float_of_int s.parent));
        ("start_s", Num (s.start -. t0));
        ("end_s", Num (s.stop -. t0));
      ]
  in
  let doc =
    Json.Obj
      [
        ("workload", Str workload);
        ("seed", Num (float_of_int seed));
        ( "self_s_by_layer",
          Obj (List.map (fun (l, t) -> (l, Json.Num t)) (self_by_layer ())) );
        ("spans", Arr (List.rev_map span_json !spans));
      ]
  in
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc (Json.to_line doc);
  output_char oc '\n';
  close_out oc
