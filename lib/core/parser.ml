(** Parser for the text circuit format emitted by {!Printer} — the other
    half of circuit (de)serialisation, letting generated circuits be
    stored, exchanged and reloaded (Quipper's textual format served the
    same role). [parse] is the left inverse of [Printer.to_string]:
    [print (parse (print b)) = print b], a property the test suite checks
    on random circuits. *)

let fail fmt = Fmt.kstr (fun s -> Errors.raise_ (Invalid ("parse: " ^ s))) fmt

(* ------------------------------------------------------------------ *)
(* Lexical helpers                                                     *)

let is_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let drop_prefix ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

(** Split [s] at the first occurrence of [sep] (a single char). *)
let split1 sep s =
  match String.index_opt s sep with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> fail "expected an integer, got %S" s

let parse_float s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> fail "expected a float, got %S" s

(** Parse a quoted string starting at index [i] of [s]; returns the
    content and the index after the closing quote. (The printer uses
    OCaml's [%S]; we handle the standard escapes.) *)
let parse_quoted s i =
  if i >= String.length s || s.[i] <> '"' then fail "expected '\"' in %S" s;
  let buf = Buffer.create 16 in
  let rec go j =
    if j >= String.length s then fail "unterminated string in %S" s
    else
      match s.[j] with
      | '"' -> (Buffer.contents buf, j + 1)
      | '\\' ->
          if j + 1 >= String.length s then fail "bad escape in %S" s;
          let c =
            match s.[j + 1] with
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | '\\' -> '\\'
            | '"' -> '"'
            | c -> c
          in
          Buffer.add_char buf c;
          go (j + 2)
      | c ->
          Buffer.add_char buf c;
          go (j + 1)
  in
  go (i + 1)

let parse_wire_list s =
  let s = String.trim s in
  if s = "" then []
  else List.map parse_int (String.split_on_char ',' s)

(* controls: [+0,-2c,+5] *)
let parse_controls s =
  let s = String.trim s in
  if s = "" then []
  else
    List.map
      (fun item ->
        let item = String.trim item in
        if String.length item < 2 then fail "bad control %S" item;
        let positive =
          match item.[0] with
          | '+' -> true
          | '-' -> false
          | _ -> fail "bad control sign in %S" item
        in
        let rest = String.sub item 1 (String.length item - 1) in
        let cty, numstr =
          if String.length rest > 0 && rest.[String.length rest - 1] = 'c' then
            (Wire.C, String.sub rest 0 (String.length rest - 1))
          else (Wire.Q, rest)
        in
        { Gate.cwire = parse_int numstr; cty; positive })
      (String.split_on_char ',' s)

(** Split a gate line into (head, args-in-parens, controls) where the line
    looks like [HEAD(args)] or [HEAD(args) with controls=[ctls]]. *)
let split_gate_line line =
  let body, controls =
    let marker = " with controls=[" in
    let rec find i =
      if i + String.length marker > String.length line then None
      else if String.sub line i (String.length marker) = marker then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> (line, [])
    | Some i ->
        let ctl_part =
          String.sub line
            (i + String.length marker)
            (String.length line - i - String.length marker)
        in
        let ctl_part =
          match String.rindex_opt ctl_part ']' with
          | Some j -> String.sub ctl_part 0 j
          | None -> fail "missing ']' in %S" line
        in
        (String.sub line 0 i, parse_controls ctl_part)
  in
  (* find the first '(' that is not inside a quoted string (gate names
     like "exp(-i%Z)" contain parentheses) *)
  let paren =
    let rec go i in_quote =
      if i >= String.length body then None
      else
        match body.[i] with
        | '"' -> go (i + 1) (not in_quote)
        | '\\' when in_quote -> go (i + 2) in_quote
        | '(' when not in_quote -> Some i
        | _ -> go (i + 1) in_quote
    in
    go 0 false
  in
  match paren with
  | None -> (body, "", controls)
  | Some i -> (
      let head = String.sub body 0 i in
      let rest = String.sub body (i + 1) (String.length body - i - 1) in
      match String.rindex_opt rest ')' with
      | Some j -> (head, String.sub rest 0 j, controls)
      | None -> fail "missing ')' in %S" line)

(* ------------------------------------------------------------------ *)
(* Gate lines                                                          *)

let parse_arity s : Wire.endpoint list =
  let s = String.trim s in
  if s = "none" || s = "" then []
  else
    List.map
      (fun item ->
        match split1 ':' (String.trim item) with
        | Some (w, "Qubit") -> Wire.qw (parse_int w)
        | Some (w, "Cbit") -> Wire.cw (parse_int w)
        | _ -> fail "bad arity item %S" item)
      (String.split_on_char ',' s)

let parse_comment_line line =
  let rest = drop_prefix ~prefix:"Comment" line in
  let text, j = parse_quoted rest 1 in
  ignore j;
  (* labels: after the first ']' of the original line: 0:"x" 1:"y" *)
  let labels =
    match String.index_opt line ']' with
    | None -> []
    | Some k ->
        let rec scan i acc =
          if i >= String.length line then List.rev acc
          else if line.[i] = ' ' then scan (i + 1) acc
          else
            match String.index_from_opt line i ':' with
            | None -> List.rev acc
            | Some c ->
                let w = parse_int (String.sub line i (c - i)) in
                let label, j = parse_quoted line (c + 1) in
                scan j ((w, label) :: acc)
        in
        scan (k + 1) []
  in
  Gate.Comment { text; labels }

let parse_gate_line (line : string) : Gate.t =
  if is_prefix ~prefix:"Comment[" line then parse_comment_line line
  else
  let head, args, controls = split_gate_line line in
  let named prefix =
    (* HEAD is like QGate["name"] or QGate["name"]* *)
    let rest = drop_prefix ~prefix head in
    if String.length rest < 1 || rest.[0] <> '[' then fail "bad head %S" head;
    let name, j = parse_quoted rest 1 in
    let tail = String.sub rest j (String.length rest - j) in
    (name, tail)
  in
  if is_prefix ~prefix:"QGate[" head then begin
    let name, tail = named "QGate" in
    let inv = String.length tail > 0 && String.contains tail '*' in
    Gate.Gate { name; inv; targets = parse_wire_list args; controls }
  end
  else if is_prefix ~prefix:"QRot[" head then begin
    let rest = drop_prefix ~prefix:"QRot" head in
    let name, j = parse_quoted rest 1 in
    let tail = String.sub rest j (String.length rest - j) in
    (* tail looks like ,angle] or ,angle]* *)
    let angle_str =
      match split1 ',' tail with
      | Some (_, rest) -> (
          match String.index_opt rest ']' with
          | Some k -> String.sub rest 0 k
          | None -> fail "bad QRot %S" head)
      | None -> fail "bad QRot %S" head
    in
    let inv = tail.[String.length tail - 1] = '*' in
    Gate.Rot
      { name; angle = parse_float angle_str; inv;
        targets = parse_wire_list args; controls }
  end
  else if is_prefix ~prefix:"GPhase[" head then begin
    let inner = drop_prefix ~prefix:"GPhase[" head in
    let angle_str =
      match String.index_opt inner ']' with
      | Some k -> String.sub inner 0 k
      | None -> fail "bad GPhase %S" head
    in
    Gate.Phase { angle = parse_float angle_str; controls }
  end
  else if is_prefix ~prefix:"QInit" head then
    Gate.Init
      { ty = Wire.Q; value = drop_prefix ~prefix:"QInit" head = "1";
        wire = parse_int args }
  else if is_prefix ~prefix:"CInit" head then
    Gate.Init
      { ty = Wire.C; value = drop_prefix ~prefix:"CInit" head = "1";
        wire = parse_int args }
  else if is_prefix ~prefix:"QTerm" head then
    Gate.Term
      { ty = Wire.Q; value = drop_prefix ~prefix:"QTerm" head = "1";
        wire = parse_int args }
  else if is_prefix ~prefix:"CTerm" head then
    Gate.Term
      { ty = Wire.C; value = drop_prefix ~prefix:"CTerm" head = "1";
        wire = parse_int args }
  else if head = "QDiscard" then Gate.Discard { ty = Wire.Q; wire = parse_int args }
  else if head = "CDiscard" then Gate.Discard { ty = Wire.C; wire = parse_int args }
  else if head = "QMeas" then Gate.Measure { wire = parse_int args }
  else if is_prefix ~prefix:"CGate[" head then begin
    let name, _ = named "CGate" in
    match split1 ';' args with
    | Some (out, ins) ->
        Gate.Cgate { name; out = parse_int out; ins = parse_wire_list ins }
    | None -> fail "bad CGate args %S" args
  end
  else if is_prefix ~prefix:"Subroutine[" head then begin
    let name, tail = named "Subroutine" in
    let inv = String.contains tail '*' in
    (* args look like "ins) -> (outs" after split_gate_line took the first
       '(' and last ')' *)
    let ins_str, outs_str =
      let marker = ") -> (" in
      let rec find i =
        if i + String.length marker > String.length args then
          fail "bad subroutine args %S" args
        else if String.sub args i (String.length marker) = marker then i
        else find (i + 1)
      in
      let i = find 0 in
      ( String.sub args 0 i,
        String.sub args
          (i + String.length marker)
          (String.length args - i - String.length marker) )
    in
    Gate.Subroutine
      { name; inv; inputs = parse_wire_list ins_str;
        outputs = parse_wire_list outs_str; controls }
  end
  else fail "unrecognised gate line %S" line

(* ------------------------------------------------------------------ *)
(* Whole documents                                                     *)

let parse_circuit_lines (lines : string list) : Circuit.t * string list =
  match lines with
  | inputs_line :: rest when is_prefix ~prefix:"Inputs:" inputs_line ->
      let inputs = parse_arity (drop_prefix ~prefix:"Inputs:" inputs_line) in
      let rec gates acc = function
        | out_line :: rest when is_prefix ~prefix:"Outputs:" out_line ->
            let outputs = parse_arity (drop_prefix ~prefix:"Outputs:" out_line) in
            ( { Circuit.inputs; gates = Array.of_list (List.rev acc); outputs },
              rest )
        | line :: rest -> gates (parse_gate_line line :: acc) rest
        | [] -> fail "missing Outputs: line"
      in
      gates [] rest
  | l :: _ -> fail "expected Inputs: line, got %S" l
  | [] -> fail "empty circuit"

(** Parse a whole document in {!Printer}'s format. *)
let parse (text : string) : Circuit.b =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let main, rest = parse_circuit_lines lines in
  let rec subs acc order = function
    | [] ->
        let b = { Circuit.main; subs = acc; sub_order = List.rev order } in
        Circuit.check_acyclic b;
        b
    | line :: rest when is_prefix ~prefix:"Subroutine:" line ->
        let name, _ =
          match String.index_opt line '"' with
          | Some i -> parse_quoted line i
          | None -> fail "expected a quoted name in %S" line
        in
        let controllable, rest =
          match rest with
          | c :: rest when is_prefix ~prefix:"Controllable:" c ->
              (String.trim (drop_prefix ~prefix:"Controllable:" c) = "true", rest)
          | _ -> fail "expected Controllable: after Subroutine:"
        in
        let circ, rest = parse_circuit_lines rest in
        subs
          (Circuit.Namespace.add name { Circuit.circ; controllable } acc)
          (name :: order) rest
    | l :: _ -> fail "unexpected line %S" l
  in
  subs Circuit.Namespace.empty [] rest

(** Parse from a file. *)
let parse_file (path : string) : Circuit.b =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      parse s)
