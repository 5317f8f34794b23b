(* The query service (ISSUE PR 4): wire protocol round-trips, the
   in-process server end to end — concurrency with per-session
   isolation, deadlines, backpressure, graceful shutdown — and the
   bounded-query engine API the server is built on. *)

open Xsb_server

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tc_program =
  ":- table path/2.\n\
   path(X,Y) :- edge(X,Y).\n\
   path(X,Y) :- path(X,Z), edge(Z,Y).\n\
   edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(5,1).\n"

(* an SLD loop: never terminates, never answers — the canonical
   runaway derivation for deadline tests *)
let loop_program = "loop(X) :- loop(X).\n"

(* --- protocol framing --- *)

let roundtrip_request req =
  let path = Filename.temp_file "proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Protocol.write_request oc req);
      In_channel.with_open_bin path Protocol.read_request)

let roundtrip_reply reply =
  let path = Filename.temp_file "proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Protocol.write_reply oc reply);
      In_channel.with_open_bin path Protocol.read_reply)

let read_request_of_string s =
  let path = Filename.temp_file "proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      In_channel.with_open_bin path Protocol.read_request)

let protocol_cases =
  [
    t "request round-trip with every field" `Quick (fun () ->
        let req =
          Protocol.request ~fmt:Protocol.Fast ~limit:7 ~timeout_ms:250 ~max_steps:9000
            Protocol.Consult "p(1).\np(2).\n"
        in
        let got = roundtrip_request req in
        check_bool "op" true (got.Protocol.op = Protocol.Consult);
        check_bool "fmt" true (got.Protocol.fmt = Protocol.Fast);
        check_string "payload" req.Protocol.payload got.Protocol.payload;
        check_bool "limit" true (got.Protocol.limit = Some 7);
        check_bool "timeout" true (got.Protocol.timeout_ms = Some 250);
        check_bool "steps" true (got.Protocol.max_steps = Some 9000));
    t "payload bytes are opaque (binary-safe framing)" `Quick (fun () ->
        let payload = "\x00\x01\xff\nANSWER 3\nnot a frame\r\n" in
        let got = roundtrip_request (Protocol.request Protocol.Query payload) in
        check_string "binary payload" payload got.Protocol.payload);
    t "reply round-trips" `Quick (fun () ->
        (match roundtrip_reply (Protocol.Ok_ "pong") with
        | Protocol.Ok_ s -> check_string "ok" "pong" s
        | _ -> Alcotest.fail "expected OK");
        (match roundtrip_reply (Protocol.Done { count = 3; more = true }) with
        | Protocol.Done { count; more } ->
            check_int "count" 3 count;
            check_bool "more" true more
        | _ -> Alcotest.fail "expected DONE");
        match roundtrip_reply (Protocol.Err (Protocol.Overloaded, "queue full")) with
        | Protocol.Err (Protocol.Overloaded, msg) -> check_string "msg" "queue full" msg
        | _ -> Alcotest.fail "expected ERR OVERLOADED");
    t "malformed frames raise Bad_frame, not Failure" `Quick (fun () ->
        let bad s =
          match read_request_of_string s with
          | exception Protocol.Bad_frame _ -> ()
          | exception End_of_file -> ()
          | _ -> Alcotest.failf "accepted malformed frame %S" s
        in
        bad "HTTP/1.1 GET /\n";
        bad "XSB1 QUERY notalen\n";
        bad "XSB1 QUERY -3\n";
        bad "XSB1 FROBNICATE 0\n";
        bad "XSB1 QUERY 0 limit=x\n";
        bad "XSB1 QUERY 999999999999\n";
        bad "XSB1 QUERY 10\nshort";
        (* truncated payload *)
        bad (String.make 8192 'A'));
    (* unbounded header *)
  ]

(* --- the bounded-query engine API (satellite: typed interruption) --- *)

let bounded_cases =
  [
    t "run_bounded: step budget returns `Timeout, not an exception" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s loop_program;
        match Xsb.Engine.run_bounded_string ~max_steps:5_000 (Xsb.Session.engine s) "loop(1)" with
        | `Timeout [] -> ()
        | `Timeout _ -> Alcotest.fail "loop/1 cannot have answers"
        | `Answers _ | `Truncated _ -> Alcotest.fail "expected `Timeout");
    t "run_bounded: a tighter engine-wide bound still raises Step_limit" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s loop_program;
        let engine = Xsb.Session.engine s in
        let arm budget =
          Xsb.Engine.set_max_steps engine ((Xsb.Session.stats s).Xsb.Machine.st_steps + budget)
        in
        (* the engine-wide bound is the binding one: its overrun must
           keep raising, not be misreported as this query's `Timeout *)
        arm 100;
        (match Xsb.Engine.run_bounded_string ~max_steps:10_000_000 engine "loop(1)" with
        | exception Xsb.Machine.Step_limit -> ()
        | _ -> Alcotest.fail "expected Step_limit from the engine-wide bound");
        (* a non-positive per-query budget installs nothing at all *)
        arm 100;
        (match Xsb.Engine.run_bounded_string ~max_steps:0 engine "loop(1)" with
        | exception Xsb.Machine.Step_limit -> ()
        | _ -> Alcotest.fail "expected Step_limit with a non-positive per-query budget");
        (* with the engine-wide bound looser, the per-query budget binds
           and interruption is the typed result again *)
        arm 10_000_000;
        (match Xsb.Engine.run_bounded_string ~max_steps:5_000 engine "loop(1)" with
        | `Timeout _ -> ()
        | _ -> Alcotest.fail "expected `Timeout from the per-query budget");
        Xsb.Engine.set_max_steps engine 0);
    t "run_bounded: wall-clock stop returns `Timeout" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s loop_program;
        let deadline = Unix.gettimeofday () +. 0.1 in
        let stop () = Unix.gettimeofday () >= deadline in
        match Xsb.Engine.run_bounded_string ~stop (Xsb.Session.engine s) "loop(1)" with
        | `Timeout _ -> ()
        | `Answers _ | `Truncated _ -> Alcotest.fail "expected `Timeout");
    t "run_bounded: limit returns `Truncated with partial rows" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s tc_program;
        match Xsb.Engine.run_bounded_string ~limit:2 (Xsb.Session.engine s) "path(1,X)" with
        | `Truncated rows -> check_bool "at least 2" true (List.length rows >= 2)
        | `Answers rows ->
            (* scheduling may have completed the table before the poll *)
            check_int "all answers" 5 (List.length rows)
        | `Timeout _ -> Alcotest.fail "expected `Truncated");
    t "regression: Step_limit mid-derivation leaves table space consistent" `Quick (fun () ->
        (* a 60-edge chain: the transitive closure needs far more than
           the budget below, so the interrupt lands mid-derivation *)
        let n = 60 in
        let chain = Buffer.create 1024 in
        Buffer.add_string chain ":- table path/2.\n";
        Buffer.add_string chain "path(X,Y) :- edge(X,Y).\n";
        Buffer.add_string chain "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
        for i = 1 to n do
          Buffer.add_string chain (Printf.sprintf "edge(%d,%d).\n" i (i + 1))
        done;
        let s = Xsb.Session.create () in
        Xsb.Session.consult s (Buffer.contents chain);
        let engine = Xsb.Session.engine s in
        (* interrupt a tabled evaluation mid-flight... *)
        (match Xsb.Engine.run_bounded_string ~max_steps:50 engine "path(1,X)" with
        | `Timeout _ -> ()
        | `Answers _ | `Truncated _ -> Alcotest.fail "budget of 50 should interrupt");
        (* ...the next queries on the same session still work, with
           complete answer sets *)
        check_int "tc after interrupt" n (Xsb.Session.count s "path(1,X)");
        check_int "again (completed table)" n (Xsb.Session.count s "path(1,X)");
        (* and an engine-wide Step_limit (the pre-existing escaping
           exception) also leaves a usable engine behind *)
        Xsb.Engine.reset_tables engine;
        Xsb.Engine.set_max_steps engine ((Xsb.Session.stats s).Xsb.Machine.st_steps + 50);
        (match Xsb.Session.count s "path(1,X)" with
        | exception Xsb.Machine.Step_limit -> ()
        | _ -> Alcotest.fail "expected Step_limit with a 50-step engine-wide bound");
        Xsb.Engine.set_max_steps engine 0;
        check_int "recovers" n (Xsb.Session.count s "path(1,X)"));
  ]

(* --- negative inputs on the CONSULT load paths (satellite) --- *)

let save_tc_image () =
  let db = Xsb.Database.create () in
  ignore (Xsb.Loader.consult_string db "edge(1,2). edge(2,3). p(f(g(1)),[a,b]).");
  let path = Filename.temp_file "objfile" ".xwam" in
  Xsb.Obj_file.save_all db path;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  bytes

let expect_bad_object what bytes =
  let db = Xsb.Database.create () in
  match Xsb.Obj_file.load_string db bytes with
  | exception Xsb.Obj_file.Bad_object_file _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Bad_object_file, got %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: corrupt image loaded" what

let negative_cases =
  [
    t "object files round-trip through load_string" `Quick (fun () ->
        let bytes = save_tc_image () in
        let db = Xsb.Database.create () in
        check_int "clauses" 3 (Xsb.Obj_file.load_string db bytes);
        check_bool "edge present" true (Xsb.Database.find db "edge" 2 <> None));
    t "truncated object images raise Bad_object_file" `Quick (fun () ->
        let bytes = save_tc_image () in
        List.iter
          (fun keep ->
            if keep < String.length bytes then
              expect_bad_object
                (Printf.sprintf "truncated to %d bytes" keep)
                (String.sub bytes 0 keep))
          [ 0; 4; 8; 11; 20; String.length bytes / 2; String.length bytes - 1 ]);
    t "bit-flipped object images raise Bad_object_file" `Quick (fun () ->
        let bytes = save_tc_image () in
        List.iter
          (fun pos ->
            let b = Bytes.of_string bytes in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
            expect_bad_object (Printf.sprintf "flip at %d" pos) (Bytes.to_string b))
          [ 0; 9; 30; String.length bytes - 1 ];
        expect_bad_object "pure garbage" (String.make 200 'Z'));
    t "forged digests do not get malicious payloads past the decoder" `Quick (fun () ->
        (* regression: the header digest is computed from the payload
           itself, so any client can forge a "valid" image over CONSULT
           fmt=obj — it proves integrity, not origin. The decoder must
           reject adversarial payloads on its own, with a typed error. *)
        let forged payload =
          let b = Buffer.create (String.length payload + 28) in
          Buffer.add_string b "XSBOBJ04";
          List.iter
            (fun shift -> Buffer.add_char b (Char.chr ((String.length payload lsr shift) land 0xff)))
            [ 24; 16; 8; 0 ];
          Buffer.add_string b (Digest.string payload);
          Buffer.add_string b payload;
          Buffer.contents b
        in
        expect_bad_object "garbage payload" (forged (String.make 64 '\xee'));
        expect_bad_object "empty payload" (forged "");
        expect_bad_object "huge record count" (forged "\x7f\xff\xff\xff");
        expect_bad_object "huge string length" (forged "\x00\x00\x00\x01\x06\xff\xff\xff\xff");
        (* a valid payload with extra bytes smuggled after the image *)
        let image = save_tc_image () in
        let payload = String.sub image 28 (String.length image - 28) in
        expect_bad_object "trailing bytes" (forged (payload ^ "\x00"));
        (* records that decode but could not apply *)
        let records rs =
          let b = Buffer.create 64 in
          Buffer.add_int32_be b (Int32.of_int (List.length rs));
          List.iter (Xsb.Record.put b) rs;
          Buffer.contents b
        in
        (* a table mode that conflicts is refused before anything applies *)
        let refused_unchanged what db bytes =
          let before = Suite_journal.fingerprint db in
          (match Xsb.Obj_file.load_string db bytes with
          | exception Xsb.Obj_file.Bad_object_file _ -> ()
          | exception e ->
              Alcotest.failf "%s: expected Bad_object_file, got %s" what (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: image loaded" what);
          check_string (what ^ ": database unchanged") before (Suite_journal.fingerprint db)
        in
        let mode m = Xsb.Record.Set_table_mode { name = "p"; arity = 1; mode = m } in
        let fact =
          [
            Xsb.Record.Add_clause
              {
                name = "e";
                arity = 0;
                front = false;
                dynamic = false;
                clause = Xsb.Canon.of_term (Xsb.Parser.term_of_string "e :- true");
              };
          ]
        in
        let min = Xsb.Pred.Subsumptive Xsb.Answer_store.Subsumption.Min in
        refused_unchanged "conflicting table modes in the image"
          (Xsb.Database.create ())
          (forged (records (fact @ [ mode Xsb.Pred.Incremental; mode min ])));
        let incremental () =
          let db = Xsb.Database.create () in
          Xsb.Database.set_table_mode db "p" 1 Xsb.Pred.Incremental;
          db
        in
        refused_unchanged "a table mode that conflicts with the database's" (incremental ())
          (forged (records (fact @ [ mode min ])));
        (* after the image removes p/1, its mode is the image's own *)
        let db = incremental () in
        ignore
          (Xsb.Obj_file.load_string db
             (forged (records (fact @ [ Xsb.Record.Remove_pred { name = "p"; arity = 1 }; mode min ]))));
        check_string "p/1 replaced" "subsumptive(min)"
          (Xsb.Pred.table_mode_to_string (Xsb.Pred.table_mode (Option.get (Xsb.Database.find db "p" 1))));
        expect_bad_object "operator priority 5000"
          (forged (records [ Xsb.Record.Declare_op { priority = 5000; fixity = "xfx"; op_name = "==>" } ]));
        (* a combination no hash index can key on (an older journal may
           hold one) is kept in the spec and builds no index *)
        let db = Xsb.Database.create () in
        let spec = Xsb.Pred.Fields [ [ 1; 2; 3; 4 ]; [ 2 ] ] in
        ignore
          (Xsb.Obj_file.load_string db
             (forged (records [ Xsb.Record.Set_index { name = "p"; arity = 4; spec; size_hint = None } ])));
        let p = Option.get (Xsb.Database.find db "p" 4) in
        check_bool "spec kept" true (Xsb.Pred.index_spec p = spec);
        Alcotest.(check (list (list int))) "indexes built" [ [ 2 ] ] (Xsb.Pred.hash_index_fields p);
        expect_bad_object "a clause filed under another predicate"
          (forged
             (records
                [
                  Xsb.Record.Add_clause
                    {
                      name = "p";
                      arity = 2;
                      front = false;
                      dynamic = false;
                      clause = Xsb.Canon.of_term (Xsb.Parser.term_of_string "q(1) :- true");
                    };
                ]));
        (* 200k-deep f(f(...f(_)...)): must neither blow the stack nor
           load; the clause-shape check rejects it as a typed error *)
        let b = Buffer.create (1 lsl 21) in
        let u32 n =
          List.iter (fun s -> Buffer.add_char b (Char.chr ((n lsr s) land 0xff))) [ 24; 16; 8; 0 ]
        in
        let str s =
          u32 (String.length s);
          Buffer.add_string b s
        in
        u32 1 (* one record *);
        Buffer.add_char b '\x00' (* Add_clause *);
        str "p";
        u32 1 (* arity *);
        Buffer.add_string b "\x00\x00" (* assertz, static *);
        for _ = 1 to 200_000 do
          Buffer.add_char b '\x04';
          str "f";
          u32 1
        done;
        Buffer.add_string b "\x00\x00\x00\x00\x00" (* CVar 0 leaf *);
        expect_bad_object "200k-deep nesting" (forged (Buffer.contents b)));
    t "obj_file.load on a truncated file raises Bad_object_file" `Quick (fun () ->
        let bytes = save_tc_image () in
        let path = Filename.temp_file "objfile" ".xwam" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.sub bytes 0 (String.length bytes - 6)));
        let db = Xsb.Database.create () in
        (match Xsb.Obj_file.load db path with
        | exception Xsb.Obj_file.Bad_object_file _ -> ()
        | exception e -> Alcotest.failf "expected Bad_object_file, got %s" (Printexc.to_string e)
        | _ -> Alcotest.fail "truncated file loaded");
        Sys.remove path);
    t "malformed fast-load rows raise Syntax, never Failure" `Quick (fun () ->
        let bad text =
          let db = Xsb.Database.create () in
          match Xsb.Fast_load.string_ db text with
          | exception Xsb.Fast_load.Syntax _ -> ()
          | exception e ->
              Alcotest.failf "%S: expected Syntax, got %s" text (Printexc.to_string e)
          | _ -> Alcotest.failf "%S: loaded" text
        in
        bad "p(1";
        bad "p(1) q(2).";
        bad "p(1).\nq(";
        bad "'unterminated";
        bad "p([1,2).";
        bad "42.";
        (* ill-formed head: a number *)
        bad "[a,b].";
        (* ill-formed head: a list *)
        bad "p(1,).");
  ]

(* --- the server end to end --- *)

let with_server ?(cfg = Server.default_config) f =
  let server = Server.start { cfg with port = 0 } in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let ok = function
  | Ok payload -> payload
  | Error { Client.code; message } ->
      Alcotest.failf "unexpected error %s: %s" (Protocol.err_code_name code) message

let with_client server f =
  let c = Client.connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let rows_of = function
  | Client.Rows { rows; _ } -> rows
  | Client.Query_timeout _ -> Alcotest.fail "unexpected timeout"
  | Client.Query_error { code; message } ->
      Alcotest.failf "unexpected query error %s: %s" (Protocol.err_code_name code) message

let server_cases =
  [
    t "ping, consult, query, statistics, abolish" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                check_string "pong" "pong" (ok (Client.ping c));
                ignore (ok (Client.consult c tc_program));
                let rows = rows_of (Client.query c "path(1,X)") in
                check_int "answers" 5 (List.length rows);
                check_bool "first row" true (List.mem "X = 2" rows);
                let stats = ok (Client.statistics c) in
                check_bool "stats mention subgoals" true
                  (String.length stats > 0
                  && String.sub stats 0 (min 9 (String.length stats)) = "subgoals:");
                ignore (ok (Client.abolish c));
                check_int "after abolish" 5 (List.length (rows_of (Client.query c "path(1,X)"))))));
    t "row limit truncates the stream" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                ignore (ok (Client.consult c tc_program));
                match Client.query ~limit:2 c "path(1,X)" with
                | Client.Rows { rows; truncated } ->
                    check_int "rows" 2 (List.length rows);
                    check_bool "truncated" true truncated
                | _ -> Alcotest.fail "expected truncated rows")));
    t "parse errors are typed, connection survives" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                (match Client.query c "path(1," with
                | Client.Query_error { code = Protocol.Parse_error; _ } -> ()
                | _ -> Alcotest.fail "expected PARSE");
                (match Client.consult c "p(1" with
                | Error { code = Protocol.Parse_error; _ } -> ()
                | _ -> Alcotest.fail "expected PARSE on consult");
                check_string "still alive" "pong" (ok (Client.ping c)))));
    t "corrupt CONSULT payloads (fast/obj) are typed errors" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                (match Client.consult ~fmt:Protocol.Fast c "edge(1,2). 42." with
                | Error { code = Protocol.Parse_error; _ } -> ()
                | _ -> Alcotest.fail "expected PARSE on bad fast rows");
                let image = save_tc_image () in
                let corrupt = String.sub image 0 (String.length image - 3) in
                (match Client.consult ~fmt:Protocol.Obj c corrupt with
                | Error { code = Protocol.Parse_error; _ } -> ()
                | _ -> Alcotest.fail "expected PARSE on truncated image");
                (* the valid image still loads on the same connection *)
                (match Client.consult ~fmt:Protocol.Obj c image with
                | Ok _ -> ()
                | Error _ -> Alcotest.fail "valid image refused");
                check_int "edge facts served" 2
                  (List.length (rows_of (Client.query c "edge(X,Y)"))))));
    t "a runaway derivation returns TIMEOUT (step budget)" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                ignore (ok (Client.consult c loop_program));
                match Client.query ~max_steps:20_000 ~timeout_ms:60_000 c "loop(1)" with
                | Client.Query_timeout [] -> ()
                | Client.Query_timeout _ -> Alcotest.fail "loop/1 cannot answer"
                | _ -> Alcotest.fail "expected TIMEOUT")));
    t "a runaway derivation returns TIMEOUT (wall deadline)" `Quick (fun () ->
        let cfg = { Server.default_config with default_max_steps = 0 } in
        with_server ~cfg (fun server ->
            with_client server (fun c ->
                ignore (ok (Client.consult c loop_program));
                let t0 = Unix.gettimeofday () in
                (match Client.query ~timeout_ms:200 c "loop(1)" with
                | Client.Query_timeout _ -> ()
                | _ -> Alcotest.fail "expected TIMEOUT");
                let elapsed = Unix.gettimeofday () -. t0 in
                check_bool "returned promptly" true (elapsed < 5.0);
                (* the worker is free again: the same connection answers *)
                check_string "alive" "pong" (ok (Client.ping c)))));
  ]

(* --- the reply path: one buffered write per request --- *)

(* the per-frame encoding the server wrote before replies were buffered:
   every frame its own header line and payload *)
let per_frame = function
  | Protocol.Ok_ p -> Printf.sprintf "OK %d\n%s" (String.length p) p
  | Protocol.Answer p -> Printf.sprintf "ANSWER %d\n%s" (String.length p) p
  | Protocol.Done { count; more } -> Printf.sprintf "DONE %d %d\n" count (Bool.to_int more)
  | Protocol.Err (code, msg) ->
      Printf.sprintf "ERR %s %d\n%s" (Protocol.err_code_name code) (String.length msg) msg

let raw_connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* wait, at most 5 s, until a gauge of the server's registry reads a
   value [ok] accepts *)
let await_gauge server name ok =
  let read () =
    match Xsb.Metrics.Exposition.validate (Xsb.Metrics.to_text (Server.registry server)) with
    | Ok samples -> Option.value ~default:0.0 (Xsb.Metrics.Exposition.find samples name)
    | Error why -> Alcotest.failf "invalid exposition: %s" why
  in
  let give_up = Unix.gettimeofday () +. 5.0 in
  while (not (ok (read ()))) && Unix.gettimeofday () < give_up do
    Thread.delay 0.005
  done

(* the server is executing a request *)
let await_in_flight server = await_gauge server "xsb_in_flight_requests" (fun v -> v >= 1.0)

(* every request answered so far has also left the gate: a reply is
   sent (and logged) just before its handler leaves *)
let await_idle server = await_gauge server "xsb_in_flight_requests" (( = ) 0.0)

(* an SLD generator of infinitely many answers: a step budget stops it
   after some rows *)
let gen_program = "gen(0).\ngen(X) :- gen(Y), X is Y + 1.\n"

let reply_cases =
  [
    t "buffered frames are the per-frame encoding" `Quick (fun () ->
        let row = Buffer.create 16 in
        Buffer.add_string row "X = f(Y)";
        List.iter
          (fun reply ->
            let b = Buffer.create 16 in
            Protocol.add_reply b reply;
            check_string (per_frame reply) (per_frame reply) (Buffer.contents b))
          [
            Protocol.Ok_ "pong";
            Protocol.Ok_ "";
            Protocol.Answer "X = 1";
            Protocol.Done { count = 12; more = false };
            Protocol.Done { count = 0; more = true };
            Protocol.Err (Protocol.Timeout, "step budget exhausted");
          ];
        let b = Buffer.create 16 in
        Protocol.add_answer b row;
        check_string "add_answer" (per_frame (Protocol.Answer "X = f(Y)")) (Buffer.contents b));
    t "reply bytes on the wire are unchanged" `Quick (fun () ->
        (* the expected rows come from an in-process session rendering
           each solution to its own string, as the server once did *)
        let s = Xsb.Session.create () in
        let clauses = Xsb.Engine.consult_string_count (Xsb.Session.engine s) (tc_program ^ gen_program) in
        let rows ?limit ?max_steps goal =
          match Xsb.Engine.run_bounded_string ?limit ?max_steps (Xsb.Session.engine s) goal with
          | `Answers l | `Truncated l | `Timeout l ->
              List.map (fun sol -> Protocol.Answer (Fmt.str "%a" (Xsb.Session.pp_solution s) sol)) l
        in
        with_server (fun server ->
            let fd = raw_connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
                let exchange name req frames =
                  Protocol.write_request oc req;
                  let want = String.concat "" (List.map per_frame frames) in
                  check_string name want (really_input_string ic (String.length want))
                in
                let query ?limit ?max_steps goal = Protocol.request ?limit ?max_steps Protocol.Query goal in
                exchange "consult"
                  (Protocol.request Protocol.Consult (tc_program ^ gen_program))
                  [ Protocol.Ok_ (Printf.sprintf "consulted %d" clauses) ];
                let tc = rows "path(1,X)" in
                check_int "five rows" 5 (List.length tc);
                exchange "multi-row, cold" (query "path(1,X)") (tc @ [ Protocol.Done { count = 5; more = false } ]);
                exchange "multi-row, from the completed table" (query "path(1,X)")
                  (tc @ [ Protocol.Done { count = 5; more = false } ]);
                exchange "empty" (query "path(9,X)") [ Protocol.Done { count = 0; more = false } ];
                exchange "truncated" (query ~limit:2 "path(1,X)")
                  (List.filteri (fun i _ -> i < 2) tc @ [ Protocol.Done { count = 2; more = true } ]);
                let partial = rows ~max_steps:200 "gen(X)" in
                check_bool "rows before the budget ran out" true (partial <> []);
                exchange "ERR after rows" (query ~max_steps:200 "gen(X)")
                  (partial @ [ Protocol.Err (Protocol.Timeout, "step budget exhausted") ]))));
  ]

(* Rows written from the answer table, against the frozen oracle
   printer: a non-ground answer sharing a variable, operator terms,
   quoted atoms and floats, each from the query-table path and then from
   the completed table. Variable ids are compared relative to the row's
   first (Suite_pretty.relative_vids). [bad/1]'s table has answers when
   its evaluation raises; its reply is the ERR frame alone. *)
let table_rows_program =
  ":- table ng/2, opt/1, quoted/1, flt/1, bad/1.\n\
   ng(1, f(Y, Y, Z)).\n\
   ng(2, g(Z, [Z|T], T)).\n\
   opt(1 + 2 * 3). opt((a :- b, c ; d)). opt(- (1)). opt(- (- a)).\n\
   opt(1 - (2 - 3)). opt(f(a = b, (x, y))). opt({p, q}). opt([1, 2 | x]).\n\
   quoted('hello world'). quoted('it''s'). quoted([]). quoted('\\\\'). quoted('A').\n\
   flt(1.5). flt(-2.5e-7). flt(1.0e20). flt(-3.0).\n\
   bad(X) :- t(X).\n\
   bad(X) :- X is foo + 1.\n\
   t(1). t(2).\n"

let table_rows_case ~durable =
  t
    (Printf.sprintf "%s: rows from the table are the oracle's bytes"
       (if durable then "durable" else "in-memory"))
    `Quick
    (fun () ->
      let s = Xsb.Session.create () in
      let engine = Xsb.Session.engine s in
      let clauses = Xsb.Engine.consult_string_count engine table_rows_program in
      let expect goal =
        match Xsb.Engine.run_bounded_string engine goal with
        | `Answers l ->
            List.map (fun sol -> Protocol.Answer (Pretty_oracle.row s sol)) l
            @ [ Protocol.Done { count = List.length l; more = false } ]
        | _ -> Alcotest.failf "%s: expected every answer" goal
        | exception e -> [ Protocol.Err (Protocol.Exec_error, Printexc.to_string e) ]
      in
      let bytes frames =
        String.concat ""
          (List.map
             (function
               | Protocol.Answer p -> per_frame (Protocol.Answer (Suite_pretty.relative_vids p))
               | f -> per_frame f)
             frames)
      in
      let run cfg =
        with_server ~cfg (fun server ->
            let fd = raw_connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
                let reply req =
                  Protocol.write_request oc req;
                  let rec frames acc =
                    match Protocol.read_reply ic with
                    | (Protocol.Done _ | Protocol.Err _ | Protocol.Ok_ _) as f -> List.rev (f :: acc)
                    | f -> frames (f :: acc)
                  in
                  frames []
                in
                let query goal = reply (Protocol.request Protocol.Query goal) in
                (match expect "ng(N,T)" with
                | Protocol.Answer row :: _ ->
                    check_string "a shared variable" "N = 1, T = f(_G0,_G0,_G1)"
                      (Suite_pretty.relative_vids row)
                | _ -> Alcotest.fail "ng(N,T) has rows");
                check_string "consult"
                  (bytes [ Protocol.Ok_ (Printf.sprintf "consulted %d" clauses) ])
                  (bytes (reply (Protocol.request Protocol.Consult table_rows_program)));
                List.iter
                  (fun goal ->
                    let want = bytes (expect goal) in
                    check_string (goal ^ ", query table") want (bytes (query goal));
                    check_string (goal ^ ", completed table") want (bytes (query goal)))
                  [ "ng(N,T)"; "opt(X)"; "quoted(X)"; "flt(X)" ];
                (match expect "bad(X)" with
                | [ Protocol.Err _ ] -> ()
                | _ -> Alcotest.fail "bad(X) must raise after its table has answers");
                check_string "ERR alone" (bytes (expect "bad(X)")) (bytes (query "bad(X)"));
                check_string "in step" (bytes [ Protocol.Ok_ "pong" ])
                  (bytes (reply (Protocol.request Protocol.Ping "")))))
      in
      if durable then
        Suite_journal.with_dir (fun dir -> run { Server.default_config with data_dir = Some dir })
      else run Server.default_config)

(* The server runs only stratified sessions, so a conditional row is
   checked at the engine level: written from the table by the row
   callback, it is the oracle's and [Session.pp_solution]'s bytes. *)
let conditional_row_case =
  t "a conditional row ends in (undefined)" `Quick (fun () ->
      let s = Xsb.Session.create ~mode:Xsb.Machine.Well_founded () in
      Xsb.Session.consult s ":- table p/0, q/0.\np :- tnot(q).\nq :- tnot(p).\n";
      let rows = ref [] in
      let ending =
        Xsb.Engine.run_rows (Xsb.Session.engine s) (Xsb.Parser.term_of_string "p") (fun row ->
            let b = Buffer.create 16 in
            Xsb.Session.add_row s b row;
            rows := Buffer.contents b :: !rows;
            true)
      in
      check_bool "complete" true (ending = `Answers);
      match (!rows, Xsb.Session.query s "p") with
      | [ row ], [ sol ] ->
          check_string "oracle" (Pretty_oracle.row s sol) row;
          check_string "pp_solution" (Fmt.str "%a" (Xsb.Session.pp_solution s) sol) row;
          check_string "text" "true (undefined)" row
      | _ -> Alcotest.fail "expected one row")

(* a durable server renders a reply under the shared-session lock but
   writes it after releasing the lock, so a client that never reads its
   (huge) reply blocks only its own worker *)
let slow_reader_case =
  t "durable server: a client that never reads does not stall others" `Slow (fun () ->
      Suite_journal.with_dir (fun dir ->
          let cfg = { Server.default_config with workers = 2; data_dir = Some dir } in
          with_server ~cfg (fun server ->
              with_client server (fun c ->
                  (* 192 rows of a 64 KiB atom: a 12 MiB reply, larger than
                     the sender's socket buffer and the reader's 4 KiB one *)
                  let facts = List.init 192 (Printf.sprintf "n(%d).\n") in
                  ignore
                    (ok
                       (Client.consult c
                          (Printf.sprintf "blob(%s).\n%s" (String.make 65536 'a')
                             (String.concat "" facts))));
                  let fd = raw_connect ~rcvbuf:4096 (Server.port server) in
                  let closed = ref false in
                  let close_slow () =
                    if not !closed then begin
                      closed := true;
                      Unix.close fd
                    end
                  in
                  Fun.protect ~finally:close_slow (fun () ->
                      Protocol.write_request (Unix.out_channel_of_descr fd)
                        (Protocol.request Protocol.Query "blob(B), n(N)");
                      (* the huge query is executing; give it time to
                         render and block on the full socket *)
                      await_in_flight server;
                      Thread.delay 0.5;
                      let answered = Atomic.make false in
                      let other =
                        Thread.create
                          (fun () ->
                            with_client server (fun c2 ->
                                if rows_of (Client.query c2 "n(7)") = [ "true" ] then
                                  Atomic.set answered true))
                          ()
                      in
                      let deadline = Unix.gettimeofday () +. 2.0 in
                      while (not (Atomic.get answered)) && Unix.gettimeofday () < deadline do
                        Thread.delay 0.01
                      done;
                      let in_time = Atomic.get answered in
                      (* unblock the stuck writer either way, so the other
                         query (and the server's shutdown) can finish *)
                      close_slow ();
                      Thread.join other;
                      check_bool "the other client's QUERY completed within 2 s" true in_time)))))

(* 8 concurrent clients with interleaved ASSERT / QUERY / ABOLISH; each
   session must behave exactly like a single-client run *)
let isolation_case =
  t "concurrency: 8 clients, per-session isolation" `Slow (fun () ->
      (* single-client expected answers for client [i] *)
      let expected i =
        let s = Xsb.Session.create () in
        Xsb.Session.consult s tc_program;
        Xsb.Session.consult s (Printf.sprintf "edge(5,%d).\n" (100 + i));
        List.length (Xsb.Session.query s "path(1,X)")
      in
      let cfg = { Server.default_config with workers = 4; queue_capacity = 64 } in
      with_server ~cfg (fun server ->
          let n = 8 in
          let failures = Array.make n "" in
          let run i () =
            try
              with_client server (fun c ->
                  ignore (ok (Client.consult c tc_program));
                  (* private fact: only this session may ever see it *)
                  ignore (ok (Client.assert_ c (Printf.sprintf "edge(5,%d)" (100 + i))));
                  for _round = 1 to 3 do
                    let rows = rows_of (Client.query c "path(1,X)") in
                    let want = expected i in
                    if List.length rows <> want then
                      failwith
                        (Printf.sprintf "round answers: got %d, want %d" (List.length rows) want);
                    (* the private node is visible, other clients' are not *)
                    if not (List.mem (Printf.sprintf "X = %d" (100 + i)) rows) then
                      failwith "own fact missing";
                    List.iter
                      (fun j ->
                        if j <> i && List.mem (Printf.sprintf "X = %d" (100 + j)) rows then
                          failwith (Printf.sprintf "saw client %d's fact" j))
                      (List.init n Fun.id);
                    ignore (ok (Client.abolish c))
                  done)
            with e -> failures.(i) <- Printexc.to_string e
          in
          let threads = List.init n (fun i -> Thread.create (run i) ()) in
          List.iter Thread.join threads;
          Array.iteri
            (fun i msg -> if msg <> "" then Alcotest.failf "client %d: %s" i msg)
            failures))

let backpressure_case =
  t "backpressure: full queue answers OVERLOADED" `Slow (fun () ->
      let cfg =
        {
          Server.default_config with
          workers = 1;
          queue_capacity = 1;
          default_max_steps = 0 (* wall deadlines only, for controlled durations *);
        }
      in
      with_server ~cfg (fun server ->
          let slow_query c timeout_ms () = ignore (Client.query ~timeout_ms c "loop(1)") in
          with_client server (fun c ->
          with_client server (fun c1 ->
          with_client server (fun c2 ->
              (* every connection consults while the server is idle: once
                 the executing slot and the one waiting place are both
                 held, every request is refused *)
              ignore (ok (Client.consult c "p(1).\n"));
              ignore (ok (Client.consult c1 loop_program));
              ignore (ok (Client.consult c2 loop_program));
              await_idle server;
              (* occupy the single slot... *)
              let t1 = Thread.create (slow_query c1 1_000) () in
              await_gauge server "xsb_in_flight_requests" (( = ) 1.0);
              (* ...fill the one waiting place... *)
              let t2 = Thread.create (slow_query c2 300) () in
              await_gauge server "xsb_queue_depth" (( = ) 1.0);
              (* ...and the next submission must be refused immediately *)
              let t0 = Unix.gettimeofday () in
              (match Client.query c "p(X)" with
              | Client.Query_error { code = Protocol.Overloaded; _ } ->
                  check_bool "refused promptly" true (Unix.gettimeofday () -. t0 < 0.5)
              | Client.Rows _ -> Alcotest.fail "expected OVERLOADED, got rows"
              | Client.Query_timeout _ -> Alcotest.fail "expected OVERLOADED, got timeout"
              | Client.Query_error { code; _ } ->
                  Alcotest.failf "expected OVERLOADED, got %s" (Protocol.err_code_name code));
              Thread.join t1;
              Thread.join t2)))))

let shutdown_case =
  t "graceful shutdown drains in-flight requests" `Slow (fun () ->
      let log_path = Filename.temp_file "access" ".jsonl" in
      let log_oc = open_out log_path in
      let cfg =
        {
          Server.default_config with
          workers = 2;
          queue_capacity = 16;
          default_max_steps = 0;
          access_log = Some log_oc;
        }
      in
      let server = Server.start { cfg with port = 0 } in
      let n = 4 in
      let outcomes = Array.make n `Pending in
      (* how many clients are past their CONSULT (acknowledged or not) *)
      let consulted = ref 0 and m = Mutex.create () and consulted_all = Condition.create () in
      let consult_done () =
        Mutex.lock m;
        incr consulted;
        Condition.signal consulted_all;
        Mutex.unlock m
      in
      let run i () =
        try
          with_client server (fun c ->
              let acked = Fun.protect ~finally:consult_done (fun () -> Client.consult c loop_program) in
              ignore (ok acked);
              match Client.query ~timeout_ms:400 c "loop(1)" with
              | Client.Query_timeout _ -> outcomes.(i) <- `Timeout
              | Client.Rows _ -> outcomes.(i) <- `Rows
              | Client.Query_error { code; _ } -> outcomes.(i) <- `Err code)
        with e -> outcomes.(i) <- `Crash (Printexc.to_string e)
      in
      let threads = List.init n (fun i -> Thread.create (run i) ()) in
      (* stop only once every CONSULT is acknowledged and a slow query
         is in flight: every accepted request must still complete with
         its full typed reply *)
      Mutex.lock m;
      while !consulted < n do
        Condition.wait consulted_all m
      done;
      Mutex.unlock m;
      await_in_flight server;
      Server.stop server;
      List.iter Thread.join threads;
      Array.iteri
        (fun i outcome ->
          match outcome with
          | `Timeout -> ()
          | `Err (Protocol.Shutting_down | Protocol.Overloaded) ->
              (* refused before execution — a typed reply, not a drop *)
              ()
          | `Pending -> Alcotest.failf "client %d never completed" i
          | `Crash msg -> Alcotest.failf "client %d: connection broken: %s" i msg
          | `Rows -> Alcotest.failf "client %d: loop/1 answered?!" i
          | `Err code ->
              Alcotest.failf "client %d: unexpected %s" i (Protocol.err_code_name code))
        outcomes;
      (* the server refuses new connections once stopped *)
      (match Client.connect (Server.port server) with
      | exception Unix.Unix_error _ -> ()
      | c ->
          (* the TCP stack may still complete the handshake; the session
             must at least be unusable *)
          (match Client.ping c with
          | exception _ -> ()
          | Ok _ -> Alcotest.fail "stopped server answered a ping"
          | Error _ -> ());
          Client.close c);
      close_out log_oc;
      (* the access log is well-formed JSONL covering the drained work *)
      let lines = In_channel.with_open_bin log_path In_channel.input_lines in
      Sys.remove log_path;
      check_bool "log nonempty" true (List.length lines >= n);
      let timeouts = ref 0 in
      List.iter
        (fun line ->
          match Xsb.Json.of_string line with
          | Error msg -> Alcotest.failf "bad JSONL line %S: %s" line msg
          | Ok json ->
              List.iter
                (fun field ->
                  if Xsb.Json.member field json = None then
                    Alcotest.failf "record missing %s: %s" field line)
                [ "ts_us"; "id"; "conn"; "op"; "pred"; "answers"; "steps"; "wall_us"; "outcome" ];
              if
                Xsb.Json.member "outcome" json
                |> Option.map (fun o -> Xsb.Json.as_string o = Some "timeout")
                |> Option.value ~default:false
              then incr timeouts)
        lines;
      check_bool "drained timeouts logged" true (!timeouts >= 1))

(* --- the METRICS op, the slow-query log, and the monotonic clock
   (ISSUE PR 8) --- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let json_int field json =
  match Xsb.Json.member field json with
  | Some v -> ( match Xsb.Json.as_int v with Some n -> n | None -> Alcotest.failf "%s not an int" field)
  | None -> Alcotest.failf "missing %s" field

let metrics_cases =
  [
    t "METRICS: valid exposition; requests_total matches the access log" `Quick (fun () ->
        let log_path = Filename.temp_file "access" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove log_path)
          (fun () ->
            let log_oc = open_out log_path in
            let cfg = { Server.default_config with access_log = Some log_oc } in
            let scrape = ref "" in
            with_server ~cfg (fun server ->
                with_client server (fun c ->
                    ignore (ok (Client.consult c tc_program));
                    check_int "tc" 5 (List.length (rows_of (Client.query c "path(1,X)")));
                    scrape := ok (Client.metrics c));
                ignore (Server.registry server));
            close_out log_oc;
            let samples =
              match Xsb.Metrics.Exposition.validate !scrape with
              | Ok samples -> samples
              | Error why -> Alcotest.failf "invalid exposition: %s" why
            in
            let find ?labels name =
              match Xsb.Metrics.Exposition.find ?labels samples name with
              | Some v -> v
              | None -> Alcotest.failf "series %s missing" name
            in
            (* rendered before its own request was logged: the scrape
               sees exactly the requests the access log had seen *)
            check_int "requests_total = pre-scrape log lines" 2
              (int_of_float (find "xsb_requests_total"));
            check_int "QUERY histogram counted it" 1
              (int_of_float
                 (find ~labels:[ ("op", "QUERY") ] "xsb_request_duration_seconds_count"));
            check_bool "per-table bytes exported" true
              (find ~labels:[ ("pred", "path/2") ] "xsb_table_bytes" > 0.0);
            check_bool "outcome counter" true
              (find ~labels:[ ("outcome", "ok") ] "xsb_requests_by_outcome_total" >= 2.0);
            check_bool "liveness gauges present" true
              (find "xsb_queue_depth" >= 0.0 && find "xsb_connections" >= 0.0);
            (* the access log now also holds the METRICS request itself *)
            check_int "log lines" 3 (List.length (read_lines log_path))));
    t "fake monotonic clock: deterministic wall_us, slow log, wall timestamps" `Quick (fun () ->
        let access_path = Filename.temp_file "access" ".jsonl" in
        let slow_path = Filename.temp_file "slow" ".jsonl" in
        let fake = ref 1000.0 in
        let saved = !Server.monotonic in
        Server.monotonic :=
          (fun () ->
            fake := !fake +. 1.0;
            !fake);
        Fun.protect
          ~finally:(fun () ->
            Server.monotonic := saved;
            Sys.remove access_path;
            Sys.remove slow_path)
          (fun () ->
            let access_oc = open_out access_path in
            let slow_oc = open_out slow_path in
            let cfg =
              {
                Server.default_config with
                workers = 1;
                access_log = Some access_oc;
                slow_ms = 500;
                slow_log = Some slow_oc;
              }
            in
            with_server ~cfg (fun server ->
                with_client server (fun c -> check_string "pong" "pong" (ok (Client.ping c))));
            close_out access_oc;
            close_out slow_oc;
            (* the handler reads the clock three times (received,
               admitted, finished): the measured wall, from admission,
               is exactly one fake-clock step, NTP-immune by
               construction *)
            (match read_lines access_path with
            | [ line ] ->
                let json = Result.get_ok (Xsb.Json.of_string line) in
                check_int "wall_us is exactly one clock step" 1_000_000 (json_int "wall_us" json);
                (* timestamps still come from the wall clock, not the fake *)
                check_bool "ts_us is epoch-scale" true (json_int "ts_us" json > 1_000_000_000_000_000)
            | lines -> Alcotest.failf "expected 1 access-log line, got %d" (List.length lines));
            (* 1s >= 500ms: the ping lands in the slow-query log too,
               correlated by request id and carrying the stats delta *)
            match read_lines slow_path with
            | [ line ] ->
                let json = Result.get_ok (Xsb.Json.of_string line) in
                check_int "id" 1 (json_int "id" json);
                check_int "wall_us" 1_000_000 (json_int "wall_us" json);
                check_int "steps delta" 0 (json_int "steps" json);
                check_int "subgoals delta" 0 (json_int "subgoals" json);
                check_bool "op" true
                  (Xsb.Json.member "op" json
                  |> Option.map (fun o -> Xsb.Json.as_string o = Some "PING")
                  |> Option.value ~default:false)
            | lines -> Alcotest.failf "expected 1 slow-log line, got %d" (List.length lines)));
    t "no slow log below the threshold" `Quick (fun () ->
        let slow_path = Filename.temp_file "slow" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove slow_path)
          (fun () ->
            let slow_oc = open_out slow_path in
            let cfg =
              { Server.default_config with slow_ms = 60_000; slow_log = Some slow_oc }
            in
            with_server ~cfg (fun server ->
                with_client server (fun c -> ignore (ok (Client.ping c))));
            close_out slow_oc;
            check_int "empty" 0 (List.length (read_lines slow_path))));
    t "retry: the elapsed budget caps attempts on the injected clock" `Quick (fun () ->
        let fake = ref 0.0 in
        let clock () =
          fake := !fake +. 1.0;
          !fake
        in
        let attempts = ref 0 in
        let r =
          Client.retry ~retries:10 ~backoff_ms:1.0 ~max_elapsed_ms:1_500.0 ~rand:(fun _ -> 0.0)
            ~sleep:(fun _ -> ()) ~clock ()
        in
        (match
           Client.with_retry r (fun () ->
               incr attempts;
               `Retry "down")
         with
        | Ok _ -> Alcotest.fail "cannot succeed"
        | Error e -> check_string "last failure" "down" e);
        (* started at t=1; after attempt 2 the clock reads 3.0 -> 2000ms
           elapsed >= 1500ms, so the 10-retry budget never gets used *)
        check_int "attempts" 2 !attempts;
        (* without the cap the same schedule runs all 11 attempts *)
        let attempts' = ref 0 in
        let r' =
          Client.retry ~retries:10 ~backoff_ms:1.0 ~max_elapsed_ms:0.0 ~rand:(fun _ -> 0.0)
            ~sleep:(fun _ -> ()) ~clock ()
        in
        (match
           Client.with_retry r' (fun () ->
               incr attempts';
               `Retry "down")
         with
        | Ok _ -> Alcotest.fail "cannot succeed"
        | Error _ -> ());
        check_int "attempts without cap" 11 !attempts');
    t "METRICS is idempotent (retryable); metrics off leaves zero counters" `Quick (fun () ->
        check_bool "idempotent" true (Client.idempotent Protocol.Metrics);
        with_server (fun server ->
            Xsb.Metrics.set_enabled (Server.registry server) false;
            with_client server (fun c -> ignore (ok (Client.ping c)));
            let conn = Client.conn (Server.port server) in
            (match
               Fun.protect
                 ~finally:(fun () -> Client.close_conn conn)
                 (fun () -> Client.call conn Protocol.Metrics Client.metrics)
             with
            | Error _ -> Alcotest.fail "METRICS failed"
            | Ok text -> (
                match Xsb.Metrics.Exposition.validate text with
                | Error why -> Alcotest.failf "invalid exposition: %s" why
                | Ok samples ->
                    check_int "nothing recorded" 0
                      (int_of_float
                         (Option.value ~default:(-1.0)
                            (Xsb.Metrics.Exposition.find samples "xsb_requests_total")))));
            ignore server));
  ]

(* --- a log write that fails (its reader is gone, the disk is full)
   drops the line; the request is still answered once and logged once,
   and the worker lives on --- *)

(* an out_channel every write to fails with EPIPE: the pipe's reader is
   closed (the server ignores SIGPIPE) *)
let broken_channel () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.close rd;
  Unix.out_channel_of_descr wr

(* PINGs on a raw connection, each reply read within 5 s; a reply that
   never comes is reported, not waited for *)
let ping_replies port n =
  let fd = raw_connect port in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      List.init n (fun _ ->
          match
            Protocol.write_request oc (Protocol.request Protocol.Ping "");
            Protocol.read_reply ic
          with
          | Protocol.Ok_ payload -> payload
          | Protocol.Err (_, message) -> "ERR " ^ message
          | Protocol.Answer _ | Protocol.Done _ -> "an answer frame"
          | exception e -> "no reply: " ^ Printexc.to_string e))

let survives_broken_log cfg () =
  let server = Server.start { cfg with port = 0; workers = 2 } in
  let first = ping_replies (Server.port server) 3 in
  let second = ping_replies (Server.port server) 1 in
  if first <> [ "pong"; "pong"; "pong" ] || second <> [ "pong" ] then
    (* a wedged worker would also wedge [Server.stop]: leave it *)
    Alcotest.failf "replies [%s], then [%s] on a second connection" (String.concat "; " first)
      (String.concat "; " second);
  Server.stop server;
  check_int "every request counted" 4 (Server.requests_served server)

let log_failure_cases =
  [
    t "a broken access log neither kills a worker nor desyncs its connection" `Quick (fun () ->
        let oc = broken_channel () in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (survives_broken_log { Server.default_config with access_log = Some oc }));
    t "a broken slow-query log neither kills a worker nor desyncs its connection" `Quick
      (fun () ->
        let oc = broken_channel () in
        (* every request is slow: the fake clock steps 1 s per read *)
        let fake = ref 0.0 in
        let saved = !Server.monotonic in
        Server.monotonic :=
          (fun () ->
            fake := !fake +. 1.0;
            !fake);
        Fun.protect
          ~finally:(fun () ->
            Server.monotonic := saved;
            close_out_noerr oc)
          (survives_broken_log
             { Server.default_config with slow_ms = 500; slow_log = Some oc }));
  ]

(* --- --profile: every session's engine profile lands in the server's
   registry as xsb_pred_* series --- *)

let scrape c =
  match Xsb.Metrics.Exposition.validate (ok (Client.metrics c)) with
  | Ok samples -> samples
  | Error why -> Alcotest.failf "invalid exposition: %s" why

let profile_cases =
  [
    t "--profile: two sessions' calls add up in METRICS and the drain table" `Quick (fun () ->
        (* one session's calls of path/2 for the query *)
        let s = Xsb.Session.create () in
        Xsb.Session.set_profiling s true;
        Xsb.Session.consult s tc_program;
        ignore (Xsb.Session.query s "path(1,X)");
        let calls = Xsb.Engine.call_count (Xsb.Session.engine s) "path" 2 in
        check_bool "the query calls path/2" true (calls > 0);
        let cfg = { Server.default_config with profile = true } in
        let server = Server.start { cfg with port = 0 } in
        let samples =
          Fun.protect
            ~finally:(fun () -> Server.stop server)
            (fun () ->
              let query () =
                with_client server (fun c ->
                    ignore (ok (Client.consult c tc_program));
                    check_int "5 rows" 5 (List.length (rows_of (Client.query c "path(1,X)"))))
              in
              query ();
              query ();
              (* both clients have disconnected; their sessions' samples
                 stay in the registry *)
              with_client server scrape)
        in
        check_int "path/2 calls of both sessions" (2 * calls)
          (int_of_float
             (Option.value ~default:(-1.0)
                (Xsb.Metrics.Exposition.find ~labels:[ ("pred", "path/2") ] samples
                   "xsb_pred_calls_total")));
        let table = Format.asprintf "%a" Server.pp_profile server in
        let lines = String.split_on_char '\n' table in
        let row prefix =
          List.exists
            (fun l -> String.length l > String.length prefix && String.starts_with ~prefix l)
            lines
        in
        check_bool "a path/2 row" true (row "path/2 ");
        check_bool "a QUERY row" true (row "QUERY "));
    t "without --profile METRICS has no xsb_pred_ family" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                ignore (ok (Client.consult c tc_program));
                ignore (rows_of (Client.query c "path(1,X)"));
                check_bool "no xsb_pred_ sample" false
                  (List.exists
                     (fun (fam, _) -> String.starts_with ~prefix:"xsb_pred_" fam)
                     (scrape c)))));
  ]

(* --- Client.call: one retry path, one budget per request --- *)

(* a port nothing listens on *)
let dead_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  Unix.close fd;
  port

(* a peer that accepts, reads one request header, and hangs up; [f]
   gets its port and the ops it has seen so far *)
let with_hangup_peer f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 16;
  let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let seen = ref [] and m = Mutex.create () and stop = Atomic.make false in
  let serve () =
    while not (Atomic.get stop) do
      let c, _ = Unix.accept ~cloexec:true fd in
      (match String.split_on_char ' ' (input_line (Unix.in_channel_of_descr c)) with
      | _ :: op :: _ -> Mutex.protect m (fun () -> seen := op :: !seen)
      | _ | (exception End_of_file) -> ());
      Unix.close c
    done
  in
  let th = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (* wake the accept *)
      Client.close (Client.connect port);
      Thread.join th;
      Unix.close fd)
    (fun () ->
      f port (fun op -> Mutex.protect m (fun () -> List.length (List.filter (( = ) op) !seen))))

let call_cases =
  [
    t "call: a peer that hangs up is a typed error; only an idempotent op is re-sent" `Quick
      (fun () ->
        with_hangup_peer (fun port seen ->
            let policy = Client.retry ~retries:2 ~backoff_ms:1.0 ~sleep:(fun _ -> ()) () in
            let lost c op f =
              Fun.protect
                ~finally:(fun () -> Client.close_conn c)
                (fun () ->
                  match Client.call ~policy c op f with
                  | Error (Client.Failed why) -> why
                  | Ok _ | Error (Client.Refused _) -> Alcotest.fail "expected a lost connection")
            in
            (* without endpoints nothing is re-sent *)
            ignore (lost (Client.conn port) Protocol.Ping Client.ping);
            check_int "one PING" 1 (seen "PING");
            (* with endpoints the idempotent PING is re-sent on every attempt... *)
            let eps = [ ("127.0.0.1", port) ] in
            ignore (lost (Client.conn ~endpoints:eps port) Protocol.Ping Client.ping);
            check_int "1 + retries + 1 PINGs" 4 (seen "PING");
            (* ...and the mutation never: its outcome is unknown *)
            let why =
              lost (Client.conn ~endpoints:eps port) Protocol.Assert (fun c ->
                  Client.assert_ c "edge(1,2)")
            in
            check_bool "outcome unknown" true
              (String.starts_with ~prefix:"connection lost, outcome unknown" why);
            check_int "the mutation is attempted once" 1 (seen "ASSERT")));
    t "call: one budget across connects and rediscovery against dead endpoints" `Quick
      (fun () ->
        let port = dead_port () in
        let eps = [ ("127.0.0.1", port); ("127.0.0.1", port) ] in
        let now = ref 0.0 and attempts = ref 0 in
        let run max_elapsed_ms =
          now := 0.0;
          (* every attempt but the last is followed by one backoff *)
          attempts := 1;
          let policy =
            Client.retry ~retries:3 ~backoff_ms:100.0 ~max_elapsed_ms ~rand:(fun hi -> hi)
              ~sleep:(fun s ->
                incr attempts;
                now := !now +. s)
              ~clock:(fun () -> !now)
              ()
          in
          match Client.call ~policy (Client.conn ~endpoints:eps port) Protocol.Ping Client.ping with
          | Error (Client.Failed _) -> !attempts
          | Ok _ | Error (Client.Refused _) -> Alcotest.fail "a dead endpoint cannot answer"
        in
        check_int "retries + 1 attempts in total" 4 (run 0.0);
        check_bool "full backoff without a budget" true (Float.abs (!now -. 0.7) < 1e-9);
        (* 100 ms, then 150 of the 200 ms backoff spend the 250 ms budget *)
        check_int "stops at max_elapsed_ms" 3 (run 250.0);
        check_bool "no backoff past the budget" true (Float.abs (!now -. 0.25) < 1e-9));
  ]

(* --- the engine work a log line reports is the request's own --- *)

(* the access-log lines of [path] for [op] *)
let log_lines_of path op =
  read_lines path
  |> List.map (fun line -> Result.get_ok (Xsb.Json.of_string line))
  |> List.filter (fun json ->
         Option.bind (Xsb.Json.member "op" json) Xsb.Json.as_string = Some op)

(* [f] gets an access-log channel and the log's lines for an op *)
let with_access_log f =
  let path = Filename.temp_file "access" ".jsonl" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () -> f oc (log_lines_of path))

let work_cases =
  [
    t "access log: an ABOLISH reports no negative steps" `Quick (fun () ->
        with_access_log (fun oc lines ->
            let cfg = { Server.default_config with access_log = Some oc } in
            with_server ~cfg (fun server ->
                with_client server (fun c ->
                    ignore (ok (Client.consult c tc_program));
                    ignore (rows_of (Client.query c "path(1,X)"));
                    ignore (rows_of (Client.query c "path(1,X)"));
                    ignore (ok (Client.abolish c))));
            (match lines "QUERY" with
            | first :: _ -> check_bool "a query's steps are counted" true (json_int "steps" first > 0)
            | [] -> Alcotest.fail "no QUERY line");
            match lines "ABOLISH" with
            | [ line ] -> check_int "ABOLISH steps" 0 (json_int "steps" line)
            | l -> Alcotest.failf "expected 1 ABOLISH line, got %d" (List.length l)));
    t "durable server: a PING queued behind a running query reports no steps" `Slow (fun () ->
        Suite_journal.with_dir (fun dir ->
            with_access_log (fun oc lines ->
                let cfg =
                  {
                    Server.default_config with
                    workers = 2;
                    data_dir = Some dir;
                    default_max_steps = 0;
                    access_log = Some oc;
                  }
                in
                with_server ~cfg (fun server ->
                    with_client server (fun a ->
                        with_client server (fun b ->
                            ignore (ok (Client.consult a loop_program));
                            await_idle server;
                            let slow =
                              Thread.create
                                (fun () -> ignore (Client.query ~timeout_ms:400 a "loop(1)"))
                                ()
                            in
                            (* the query holds the shared session; the
                               PING waits for it *)
                            await_in_flight server;
                            check_string "pong" "pong" (ok (Client.ping b));
                            Thread.join slow)));
                (match lines "QUERY" with
                | [ line ] -> check_bool "the query's steps" true (json_int "steps" line > 0)
                | l -> Alcotest.failf "expected 1 QUERY line, got %d" (List.length l));
                match lines "PING" with
                | [ line ] -> check_int "PING steps" 0 (json_int "steps" line)
                | l -> Alcotest.failf "expected 1 PING line, got %d" (List.length l))));
  ]

(* --- a host name binds and connects like its address --- *)

let host_name_case =
  t "a server bound to localhost answers a client dialing localhost" `Quick (fun () ->
      with_server ~cfg:{ Server.default_config with host = "localhost" } (fun server ->
          let c = Client.conn ~host:"localhost" (Server.port server) in
          Fun.protect
            ~finally:(fun () -> Client.close_conn c)
            (fun () ->
              match Client.call c Protocol.Ping Client.ping with
              | Ok pong -> check_string "pong" "pong" pong
              | Error (Client.Failed why) -> Alcotest.failf "failed: %s" why
              | Error (Client.Refused { message; _ }) -> Alcotest.failf "refused: %s" message)))

(* --- the admission gate's wait line --- *)

(* Three rounds, so a gate that admits its two waiters in an arbitrary
   order passes with odds 1 in 8 instead of 1 in 2. *)
let gate_order_case =
  t "admission gate: waiters run in arrival order; a full line is OVERLOADED" `Slow (fun () ->
      with_access_log (fun oc lines ->
          let cfg =
            {
              Server.default_config with
              workers = 1;
              queue_capacity = 2;
              default_max_steps = 0;
              access_log = Some oc;
            }
          in
          let rounds = 3 in
          let pongs = ref [] and m = Mutex.create () in
          let ping conn () =
            let r = match Client.ping conn with Ok p -> p | Error { Client.message; _ } -> message in
            Mutex.protect m (fun () -> pongs := r :: !pongs)
          in
          with_server ~cfg (fun server ->
              (* a round trip each before the next connects, so the
                 connection ids follow a < b < c < d *)
              let connect () =
                let c = Client.connect (Server.port server) in
                ignore (ok (Client.consult c loop_program));
                c
              in
              let a = connect () in
              let b = connect () in
              let c = connect () in
              let d = connect () in
              Fun.protect
                ~finally:(fun () -> List.iter Client.close [ a; b; c; d ])
                (fun () ->
                  for _ = 1 to rounds do
                    await_idle server;
                    (* a holds the one slot for 400 ms... *)
                    let ta =
                      Thread.create
                        (fun () -> ignore (Client.query ~timeout_ms:400 a "loop(1)"))
                        ()
                    in
                    await_gauge server "xsb_in_flight_requests" (( = ) 1.0);
                    (* ...b and then c line up behind it... *)
                    let tb = Thread.create (ping b) () in
                    await_gauge server "xsb_queue_depth" (( = ) 1.0);
                    let tc = Thread.create (ping c) () in
                    await_gauge server "xsb_queue_depth" (( = ) 2.0);
                    (* ...and the line is full *)
                    (match Client.ping d with
                    | Error { Client.code = Protocol.Overloaded; _ } -> ()
                    | Ok _ -> Alcotest.fail "expected OVERLOADED, got pong"
                    | Error { Client.code; _ } ->
                        Alcotest.failf "expected OVERLOADED, got %s"
                          (Protocol.err_code_name code));
                    List.iter Thread.join [ ta; tb; tc ]
                  done));
          check_bool "every waiter answered" true
            (!pongs = List.init (2 * rounds) (fun _ -> "pong"));
          (* with one slot, a waiter's line is written before the next
             one runs: the log shows the admission order *)
          let admitted =
            lines "PING"
            |> List.filter (fun json ->
                   Option.bind (Xsb.Json.member "outcome" json) Xsb.Json.as_string = Some "ok")
            |> List.map (json_int "conn")
          in
          match List.sort_uniq compare admitted with
          | [ b; c ] ->
              check_bool "b before c in every round" true
                (admitted = List.concat (List.init rounds (fun _ -> [ b; c ])))
          | ids -> Alcotest.failf "expected ok PINGs from 2 connections, got %d" (List.length ids)))

(* --- preload files and the row cap --- *)

let with_program_file text f =
  let path = Filename.temp_file "preload" ".P" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let config_cases =
  [
    t "preload: every connection sees the files; an ASSERT stays in its session" `Quick
      (fun () ->
        with_program_file tc_program (fun path ->
            let cfg = { Server.default_config with preload = [ path ] } in
            with_server ~cfg (fun server ->
                with_client server (fun a ->
                    with_client server (fun b ->
                        let count c goal = List.length (rows_of (Client.query c goal)) in
                        check_int "a sees the preload" 5 (count a "path(1,X)");
                        check_int "b sees the preload" 5 (count b "path(1,X)");
                        ignore (ok (Client.assert_ a "edge(6,7)"));
                        check_int "a sees its assert" 1 (count a "edge(6,X)");
                        check_int "b does not" 0 (count b "edge(6,X)");
                        check_int "b keeps the preload" 5 (count b "path(1,X)"))))));
    t "preload: a syntax error makes Server.start raise" `Quick (fun () ->
        with_program_file "edge(1,2).\nedge(2,\n" (fun path ->
            match Server.start { Server.default_config with port = 0; preload = [ path ] } with
            | exception Server.Preload_error { path = failed; message } ->
                check_string "the path of the file that failed" path failed;
                check_bool ("a syntax error: " ^ message) true
                  (String.length message > 12 && String.sub message 0 12 = "syntax error")
            | server ->
                Server.stop server;
                Alcotest.fail "started with a malformed preload"));
    t "preload: a file may use an operator an earlier file declares" `Quick (fun () ->
        with_program_file ":- op(700, xfx, ===>).\n" (fun a ->
            with_program_file "r(1 ===> 2).\n" (fun b ->
                let run cfg =
                  with_server ~cfg:{ cfg with Server.preload = [ a; b ] } (fun server ->
                      with_client server (fun c ->
                          check_int "one r/1 row" 1 (List.length (rows_of (Client.query c "r(X)")))))
                in
                run Server.default_config;
                Suite_journal.with_dir (fun dir ->
                    run { Server.default_config with data_dir = Some dir }))));
    t "max_answers caps every QUERY, with or without a limit" `Quick (fun () ->
        let cfg = { Server.default_config with max_answers = 3 } in
        with_server ~cfg (fun server ->
            with_client server (fun c ->
                ignore (ok (Client.consult c tc_program));
                let query ?limit () =
                  match Client.query ?limit c "path(1,X)" with
                  | Client.Rows { rows; truncated } -> (List.length rows, truncated)
                  | _ -> Alcotest.fail "expected rows"
                in
                let rows = Alcotest.(check (pair int bool)) in
                rows "no limit: DONE 3 1" (3, true) (query ());
                rows "limit=10: DONE 3 1" (3, true) (query ~limit:10 ());
                rows "limit=2: DONE 2 1" (2, true) (query ~limit:2 ()))));
  ]

(* --- the ROLE payload: Client writes it and parses it --- *)

let role_cases =
  let standby =
    {
      Client.role = Client.Standby_role;
      epoch = 3L;
      generation = 2L;
      offset = 120;
      repl_port = None;
      priority = 1;
      read_only = true;
      peers = [ ("127.0.0.1", 7001); ("h2", 7002) ];
      fatal = Some "fenced: epoch 2 position 2/130 diverged";
    }
  in
  let primary =
    {
      Client.role = Client.Primary_role;
      epoch = 2L;
      generation = 5L;
      offset = 4096;
      repl_port = Some 7101;
      priority = 0;
      read_only = false;
      peers = [];
      fatal = None;
    }
  in
  [
    t "ROLE payload: a primary's and a standby's bytes" `Quick (fun () ->
        check_string "primary"
          "role: primary\nepoch: 2\ngeneration: 5\noffset: 4096\nrepl_port: 7101\npriority: 0\nread_only: no\npeers: \n"
          (Client.role_payload_of_info primary);
        check_string "standby"
          "role: standby\nepoch: 3\ngeneration: 2\noffset: 120\nfatal: fenced: epoch 2 position 2/130 diverged\nrepl_port: -\npriority: 1\nread_only: yes\npeers: 127.0.0.1:7001,h2:7002\n"
          (Client.role_payload_of_info standby);
        with_server (fun server ->
            with_client server (fun c ->
                check_string "an in-memory server"
                  "role: primary\nepoch: 0\ngeneration: 0\noffset: 0\nrepl_port: -\npriority: 0\nread_only: no\npeers: \n"
                  (ok (Client.role_payload c)))));
    t "ROLE payload: parsing what is written gives the info back" `Quick (fun () ->
        List.iter
          (fun r ->
            check_bool "round trip" true
              (Client.role_info_of_payload (Client.role_payload_of_info r) = r))
          [ primary; standby; { standby with fatal = None; peers = [] }; { primary with peers = standby.peers } ]);
  ]

(* a transient accept error (EMFILE: out of descriptors) must not stop
   the acceptor: the connection waits in the backlog and is served *)
let accept_error_case =
  t "an accept that fails with EMFILE is counted, and the server keeps accepting" `Quick
    (fun () ->
      with_server (fun server ->
          Xsb.Failpoint.reset ();
          Fun.protect ~finally:Xsb.Failpoint.reset (fun () ->
              Xsb.Failpoint.arm "net.accept" Xsb.Failpoint.Fail;
              let fd = raw_connect (Server.port server) in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                  (* a dead acceptor would leave the read blocked: fail instead *)
                  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
                  Protocol.write_request (Unix.out_channel_of_descr fd)
                    (Protocol.request Protocol.Ping "");
                  check_bool "pong" true
                    (Protocol.read_reply (Unix.in_channel_of_descr fd) = Protocol.Ok_ "pong"));
              check_int "a failed accept, then one that succeeded" 2
                (Xsb.Failpoint.hits "net.accept");
              match
                Xsb.Metrics.Exposition.validate (Xsb.Metrics.to_text (Server.registry server))
              with
              | Ok samples ->
                  check_bool "counted once" true
                    (Xsb.Metrics.Exposition.find ~labels:[ ("listener", "query") ] samples
                       "xsb_accept_errors_total"
                    = Some 1.0)
              | Error why -> Alcotest.failf "invalid exposition: %s" why)))

let suite =
  protocol_cases @ bounded_cases @ negative_cases @ server_cases @ metrics_cases
  @ [ isolation_case; backpressure_case; shutdown_case ]
  @ reply_cases
  @ [ table_rows_case ~durable:false; table_rows_case ~durable:true; conditional_row_case ]
  @ [ slow_reader_case ] @ log_failure_cases @ profile_cases @ call_cases
  @ work_cases @ [ host_name_case; gate_order_case ] @ config_cases @ role_cases
  @ [ accept_error_case ]
