exception Bad_frame of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_frame msg)) fmt

let max_payload = 16 * 1024 * 1024
let max_header = 4096

type consult_fmt = Text | Fast | Obj
type op =
  | Ping
  | Consult
  | Assert
  | Query
  | Statistics
  | Abolish
  | Sync
  | Metrics
  | Promote
  | Role

type request = {
  op : op;
  fmt : consult_fmt;
  payload : string;
  limit : int option;
  timeout_ms : int option;
  max_steps : int option;
}

let request ?(fmt = Text) ?limit ?timeout_ms ?max_steps op payload =
  { op; fmt; payload; limit; timeout_ms; max_steps }

type err_code =
  | Bad_request
  | Parse_error
  | Exec_error
  | Timeout
  | Overloaded
  | Shutting_down
  | Readonly

let err_code_name = function
  | Bad_request -> "BAD_REQUEST"
  | Parse_error -> "PARSE"
  | Exec_error -> "EXEC"
  | Timeout -> "TIMEOUT"
  | Overloaded -> "OVERLOADED"
  | Shutting_down -> "SHUTTING_DOWN"
  | Readonly -> "READONLY"

let err_code_of_name = function
  | "BAD_REQUEST" -> Some Bad_request
  | "PARSE" -> Some Parse_error
  | "EXEC" -> Some Exec_error
  | "TIMEOUT" -> Some Timeout
  | "OVERLOADED" -> Some Overloaded
  | "SHUTTING_DOWN" -> Some Shutting_down
  | "READONLY" -> Some Readonly
  | _ -> None

type reply =
  | Ok_ of string
  | Answer of string
  | Done of { count : int; more : bool }
  | Err of err_code * string

let op_name = function
  | Ping -> "PING"
  | Consult -> "CONSULT"
  | Assert -> "ASSERT"
  | Query -> "QUERY"
  | Statistics -> "STATISTICS"
  | Abolish -> "ABOLISH"
  | Sync -> "SYNC"
  | Metrics -> "METRICS"
  | Promote -> "PROMOTE"
  | Role -> "ROLE"

let op_of_name = function
  | "PING" -> Some Ping
  | "CONSULT" -> Some Consult
  | "ASSERT" -> Some Assert
  | "QUERY" -> Some Query
  | "STATISTICS" -> Some Statistics
  | "ABOLISH" -> Some Abolish
  | "SYNC" -> Some Sync
  | "METRICS" -> Some Metrics
  | "PROMOTE" -> Some Promote
  | "ROLE" -> Some Role
  | _ -> None

let fmt_name = function Text -> "text" | Fast -> "fast" | Obj -> "obj"

let fmt_of_name = function
  | "text" -> Some Text
  | "fast" -> Some Fast
  | "obj" -> Some Obj
  | _ -> None

(* --- low-level framing --- *)

let read_line_bounded ic =
  match Xsb_repl.Net.read_line ~max:max_header ic with
  | None -> bad "header line longer than %d bytes" max_header
  (* tolerate CRLF clients *)
  | Some line when String.ends_with ~suffix:"\r" line ->
      String.sub line 0 (String.length line - 1)
  | Some line -> line

let parse_len s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= max_payload -> n
  | Some n -> bad "implausible payload length %d" n
  | None -> bad "bad payload length %S" s

let read_payload ic len =
  try really_input_string ic len with End_of_file -> bad "truncated payload (wanted %d bytes)" len

let parse_int_field key v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> bad "bad value %S for key %s" v key

(* --- requests --- *)

let write_request oc (r : request) =
  let b = Buffer.create 64 in
  Buffer.add_string b "XSB1 ";
  Buffer.add_string b (op_name r.op);
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int (String.length r.payload));
  if r.fmt <> Text then Buffer.add_string b (" fmt=" ^ fmt_name r.fmt);
  (match r.limit with Some n -> Buffer.add_string b (Printf.sprintf " limit=%d" n) | None -> ());
  (match r.timeout_ms with
  | Some n -> Buffer.add_string b (Printf.sprintf " timeout_ms=%d" n)
  | None -> ());
  (match r.max_steps with
  | Some n -> Buffer.add_string b (Printf.sprintf " max_steps=%d" n)
  | None -> ());
  Buffer.add_char b '\n';
  output_string oc (Buffer.contents b);
  output_string oc r.payload;
  flush oc

let read_request ic =
  let line = read_line_bounded ic in
  match Xsb_repl.Net.words line with
  | "XSB1" :: opw :: lenw :: fields ->
      let op = match op_of_name opw with Some op -> op | None -> bad "unknown op %S" opw in
      let len = parse_len lenw in
      let req = ref (request op "") in
      List.iter
        (fun field ->
          match String.index_opt field '=' with
          | None -> bad "bad request field %S" field
          | Some i -> (
              let key = String.sub field 0 i in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              match key with
              | "fmt" -> (
                  match fmt_of_name v with
                  | Some f -> req := { !req with fmt = f }
                  | None -> bad "unknown consult format %S" v)
              | "limit" -> req := { !req with limit = Some (parse_int_field key v) }
              | "timeout_ms" -> req := { !req with timeout_ms = Some (parse_int_field key v) }
              | "max_steps" -> req := { !req with max_steps = Some (parse_int_field key v) }
              | _ -> bad "unknown request key %S" key))
        fields;
      { !req with payload = read_payload ic len }
  | [] -> bad "empty request header"
  | w :: _ when w <> "XSB1" -> bad "bad protocol tag %S (expected XSB1)" w
  | _ -> bad "short request header %S" line

(* --- replies --- *)

(* frames are appended to a buffer, so a whole reply — every frame one
   request produces — can go out in one write *)
let add_header b tag len =
  Buffer.add_string b tag;
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int len);
  Buffer.add_char b '\n'

let add_reply b = function
  | Ok_ payload ->
      add_header b "OK" (String.length payload);
      Buffer.add_string b payload
  | Answer payload ->
      add_header b "ANSWER" (String.length payload);
      Buffer.add_string b payload
  | Done { count; more } -> Printf.bprintf b "DONE %d %d\n" count (Bool.to_int more)
  | Err (code, msg) ->
      add_header b ("ERR " ^ err_code_name code) (String.length msg);
      Buffer.add_string b msg

let add_answer b row =
  add_header b "ANSWER" (Buffer.length row);
  Buffer.add_buffer b row

let write_reply oc reply =
  let b = Buffer.create 64 in
  add_reply b reply;
  Buffer.output_buffer oc b;
  flush oc

let read_reply ic =
  let line = read_line_bounded ic in
  match Xsb_repl.Net.words line with
  | [ "OK"; lenw ] -> Ok_ (read_payload ic (parse_len lenw))
  | [ "ANSWER"; lenw ] -> Answer (read_payload ic (parse_len lenw))
  | [ "DONE"; countw; morew ] -> (
      match (int_of_string_opt countw, morew) with
      | Some count, "0" -> Done { count; more = false }
      | Some count, "1" -> Done { count; more = true }
      | _ -> bad "bad DONE frame %S" line)
  | [ "ERR"; codew; lenw ] -> (
      let msg = read_payload ic (parse_len lenw) in
      match err_code_of_name codew with
      | Some code -> Err (code, msg)
      | None -> bad "unknown error code %S" codew)
  | _ -> bad "bad reply header %S" line
