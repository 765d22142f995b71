(** ASCII-art circuit rendering.

    The paper renders circuits to PostScript/PDF; in a terminal-only world
    we draw the same diagrams in ASCII: one row per wire (quantum wires are
    [---], classical wires [===]), one column per gate, [x] for a not
    target, [*] for a positive control, [o] for a negative control, boxed
    labels for named gates, [0|-] / [-|0] for initialisation and assertive
    termination so ancilla scopes (§4.2.1) are visible at a glance. Used by
    the examples and the figure-reproduction section of the bench harness. *)

type cell = {
  mutable text : string;
  mutable connect_up : bool;
  mutable connect_down : bool;
}

let render ?(max_columns = 10000) (c : Circuit.t) : string =
  (* collect wires in order of appearance *)
  let order : (Wire.t, int) Hashtbl.t = Hashtbl.create 32 in
  let wires = ref [] in
  let note w =
    if not (Hashtbl.mem order w) then begin
      Hashtbl.add order w (Hashtbl.length order);
      wires := w :: !wires
    end
  in
  List.iter (fun (e : Wire.endpoint) -> note e.Wire.wire) c.Circuit.inputs;
  Array.iter
    (fun g -> List.iter (fun (e : Wire.endpoint) -> note e.Wire.wire) (Gate.wires g))
    c.Circuit.gates;
  List.iter (fun (e : Wire.endpoint) -> note e.Wire.wire) c.Circuit.outputs;
  let wires = List.rev !wires in
  let nrows = List.length wires in
  let row w = Hashtbl.find order w in
  let ngates = min max_columns (Array.length c.Circuit.gates) in
  let m = Wire.Marks.create () in
  (* liveness/type per column: live.(r) is the wire state entering column j *)
  let state = Array.make nrows `Dead in
  List.iter
    (fun (e : Wire.endpoint) ->
      state.(row e.Wire.wire) <- (match e.Wire.ty with Wire.Q -> `Q | Wire.C -> `C))
    c.Circuit.inputs;
  let buf = Buffer.create 1024 in
  let columns = ref ([] : (cell array * [ `Q | `C | `Dead | `Dying ] array) list) in
  let fresh_col () =
    Array.init nrows (fun _ -> { text = ""; connect_up = false; connect_down = false })
  in
  let mark_span col rs =
    match rs with
    | [] -> ()
    | rs ->
        let lo = List.fold_left min (List.hd rs) rs
        and hi = List.fold_left max (List.hd rs) rs in
        for r = lo to hi do
          if r > lo then col.(r).connect_up <- true;
          if r < hi then col.(r).connect_down <- true
        done
  in
  let ctl_cells col controls =
    List.iter
      (fun (k : Gate.control) ->
        col.(row k.cwire).text <- (if k.positive then "*" else "o"))
      controls
  in
  for j = 0 to ngates - 1 do
    let g = c.Circuit.gates.(j) in
    let col = fresh_col () in
    let rows_of ws = List.map row ws in
    (match g with
    | Gate.Gate { name; inv; targets; controls } ->
        let label =
          match name with
          | "not" -> "x"
          | n -> Printf.sprintf "[%s%s]" n (if inv then "*" else "")
        in
        List.iter (fun w -> col.(row w).text <- label) targets;
        ctl_cells col controls;
        mark_span col (rows_of (targets @ List.map (fun (k : Gate.control) -> k.cwire) controls))
    | Gate.Rot { name; inv; targets; controls; _ } ->
        let label = Printf.sprintf "[%s%s]" name (if inv then "*" else "") in
        List.iter (fun w -> col.(row w).text <- label) targets;
        ctl_cells col controls;
        mark_span col (rows_of (targets @ List.map (fun (k : Gate.control) -> k.cwire) controls))
    | Gate.Phase { angle; controls } ->
        (match controls with
        | [] -> ()
        | k :: _ -> col.(row k.cwire).text <- Printf.sprintf "[Ph %.2g]" angle);
        ctl_cells col (match controls with [] -> [] | _ :: tl -> tl);
        mark_span col (rows_of (List.map (fun (k : Gate.control) -> k.cwire) controls))
    | Gate.Init { ty; value; wire } ->
        col.(row wire).text <- Printf.sprintf "%d|-" (Bool.to_int value);
        state.(row wire) <- (match ty with Wire.Q -> `Q | Wire.C -> `C)
    | Gate.Term { value; wire; _ } ->
        col.(row wire).text <- Printf.sprintf "-|%d" (Bool.to_int value);
        state.(row wire) <- `Dying
    | Gate.Discard { wire; _ } ->
        col.(row wire).text <- "-/";
        state.(row wire) <- `Dying
    | Gate.Measure { wire } ->
        col.(row wire).text <- "[M]";
        state.(row wire) <- `C
    | Gate.Cgate { name; out; ins } ->
        col.(row out).text <- Printf.sprintf "[%s]" name;
        List.iter (fun w -> col.(row w).text <- "*") ins;
        state.(row out) <- `C;
        mark_span col (rows_of (out :: ins))
    | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
        let label = Printf.sprintf "[%s%s]" name (if inv then "*" else "") in
        Wire.Marks.call m ~inputs ~outputs;
        List.iter (fun w -> col.(row w).text <- label) inputs;
        List.iter
          (fun w -> if Wire.Marks.find m w land 1 = 0 then begin
              col.(row w).text <- label;
              state.(row w) <- `Q
            end)
          outputs;
        List.iter
          (fun w -> if Wire.Marks.find m w land 2 = 0 then state.(row w) <- `Dying)
          inputs;
        ctl_cells col controls;
        mark_span col
          (rows_of (inputs @ outputs @ List.map (fun (k : Gate.control) -> k.cwire) controls))
    | Gate.Comment { text; _ } ->
        (* comments become a full-height marker column *)
        for r = 0 to nrows - 1 do
          if col.(r).text = "" && state.(r) <> `Dead && state.(r) <> `Dying then
            col.(r).text <- ":"
        done;
        ignore text);
    (* snapshot liveness into the column for drawing, then age Dying->Dead *)
    let live_here = Array.map (fun s -> s) state in
    for r = 0 to nrows - 1 do
      if state.(r) = `Dying then state.(r) <- `Dead
    done;
    columns := (col, live_here) :: !columns
  done;
  let columns = List.rev !columns in
  (* width of each column *)
  let widths =
    List.map
      (fun ((col : cell array), _) ->
        Array.fold_left (fun w c -> max w (String.length c.text)) 1 col)
      columns
  in
  (* draw: for each wire row, a gate line, then a connector line *)
  let line_for_row r =
    let b = Buffer.create 128 in
    List.iter2
      (fun ((col : cell array), live) w ->
        let cell = col.(r) in
        let fill =
          match live.(r) with
          | `Q | `Dying -> '-'
          | `C -> '='
          | `Dead -> ' '
        in
        let pad = w - String.length cell.text in
        let lpad = pad / 2 and rpad = pad - (pad / 2) in
        let fill_or_space n =
          String.make n (if live.(r) = `Dead && cell.text = "" then ' ' else fill)
        in
        Buffer.add_string b (fill_or_space (lpad + 1));
        Buffer.add_string b cell.text;
        Buffer.add_string b (fill_or_space (rpad + 1)))
      columns widths;
    Buffer.contents b
  in
  let connector_for_row r =
    (* the line *below* row r: '|' where a column connects r to r+1 *)
    let b = Buffer.create 128 in
    List.iter2
      (fun ((col : cell array), _) w ->
        let has = col.(r).connect_down in
        let pad = w - 1 in
        let lpad = pad / 2 and rpad = pad - (pad / 2) in
        Buffer.add_string b (String.make (lpad + 1) ' ');
        Buffer.add_char b (if has then '|' else ' ');
        Buffer.add_string b (String.make (rpad + 1) ' '))
      columns widths;
    Buffer.contents b
  in
  List.iteri
    (fun idx w ->
      ignore w;
      Buffer.add_string buf (Printf.sprintf "%4d: " (List.nth wires idx));
      Buffer.add_string buf (line_for_row idx);
      Buffer.add_char buf '\n';
      if idx < nrows - 1 then begin
        let conn = connector_for_row idx in
        if String.exists (fun c -> c = '|') conn then begin
          Buffer.add_string buf "      ";
          Buffer.add_string buf conn;
          Buffer.add_char buf '\n'
        end
      end)
    wires;
  if Array.length c.Circuit.gates > ngates then
    Buffer.add_string buf
      (Printf.sprintf "... (%d more gates)\n" (Array.length c.Circuit.gates - ngates));
  Buffer.contents buf

let render_b ?max_columns (b : Circuit.b) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (render ?max_columns b.Circuit.main);
  List.iter
    (fun name ->
      let sub = Circuit.find_sub b name in
      Buffer.add_string buf (Printf.sprintf "\nSubroutine %s:\n" name);
      Buffer.add_string buf (render ?max_columns sub.Circuit.circ))
    b.Circuit.sub_order;
  Buffer.contents buf

let print ?max_columns (b : Circuit.b) = print_string (render_b ?max_columns b)
