(* Replication (ISSUE PR 9): journal shipping end-to-end through the
   server — a primary serving its replication feed, a standby mirroring
   and applying it live, read-only refusal on the standby, snapshot
   bootstrap after the primary compacted, following across a rotation,
   and promotion to a writable primary with the acked prefix intact. *)

open Xsb_server
module J = Xsb.Journal
module R = Xsb_repl.Repl

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let with_dir = Suite_journal.with_dir

let with_server cfg f =
  let server = Server.start { cfg with Server.port = 0 } in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let c = Client.connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok = function
  | Ok payload -> payload
  | Error { Client.code; message } ->
      Alcotest.failf "unexpected error %s: %s" (Protocol.err_code_name code) message

let rows_of = function
  | Client.Rows { rows; _ } -> rows
  | Client.Query_timeout _ -> Alcotest.fail "unexpected timeout"
  | Client.Query_error { code; message } ->
      Alcotest.failf "unexpected query error %s: %s" (Protocol.err_code_name code) message

(* the single core interleaves the applier with everything else, so
   settling is a yield loop with a generous deadline, not a sleep *)
let settle ?(timeout = 15.0) what pred =
  let deadline = Xsb.Mclock.now () +. timeout in
  let rec go () =
    if pred () then ()
    else if Xsb.Mclock.now () > deadline then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let primary_cfg ?(compact_bytes = 0) dir =
  {
    Server.default_config with
    Server.data_dir = Some dir;
    sync = J.default_group;
    compact_bytes;
    repl_port = Some 0;
    keep_generations = 2;
  }

let standby_cfg dir primary =
  {
    Server.default_config with
    Server.data_dir = Some dir;
    replica_of = Some primary;
    compact_bytes = 0;
  }

let repl_port server =
  match Server.repl_listen_port server with
  | Some p -> p
  | None -> Alcotest.fail "primary has no replication port"

let standby_status server =
  match Server.replica_status server with
  | Some s -> s
  | None -> Alcotest.fail "server is not a standby"

(* caught up = the standby's applied frontier equals the primary's
   durable position exactly (the lag gauge alone can read 0 before the
   first heartbeat taught the standby the primary's watermark) *)
let wait_caught_up primary standby =
  settle "standby catch-up" (fun () ->
      let s = standby_status standby in
      match Server.journal primary with
      | None -> false
      | Some j ->
          let pgen, poff = J.durable_position j in
          s.R.Standby.connected && s.R.Standby.fatal = None
          && Int64.equal s.R.Standby.generation pgen
          && s.R.Standby.applied_off = poff
          && s.R.Standby.lag_bytes = 0)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

(* the generation archives of a data directory, by file name *)
let archives dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun name ->
         Scanf.sscanf_opt name "journal.%Ld.log%!" ignore <> None
         || Scanf.sscanf_opt name "snapshot.%Ld.bin%!" ignore <> None)
  |> List.sort compare

let compact_primary primary =
  match Server.journal primary with Some j -> J.compact j | None -> Alcotest.fail "no journal"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* the value of an unlabelled gauge/counter line in a Prometheus text
   exposition, e.g. [metric_value text "xsb_repl_sync_degraded"] *)
let metric_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)

(* --- Net: the one listener and dial under the server and the feed --- *)

module Net = Xsb_repl.Net

(* every handler first sends its connection id as a line *)
let with_listener ?(rest = fun _ -> ()) f =
  let greet id fd =
    let oc = Unix.out_channel_of_descr fd in
    Printf.fprintf oc "%d\n" id;
    flush oc;
    rest fd
  in
  let l = Net.listen ~host:"127.0.0.1" ~port:0 greet in
  Fun.protect ~finally:(fun () -> Net.close l Unix.SHUTDOWN_ALL) (fun () -> f l)

(* dial and read the greeting: (fd, its in_channel, the id) *)
let dial l =
  let fd = Net.connect "127.0.0.1" (Net.port l) in
  let ic = Unix.in_channel_of_descr fd in
  (fd, ic, int_of_string (input_line ic))

(* a handler that echoes lines until the peer closes *)
let echo fd =
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  try
    while true do
      output_string oc (input_line ic ^ "\n");
      flush oc
    done
  with End_of_file | Sys_error _ -> ()

let net_cases =
  [
    t "net: connection ids count from 1 in accept order" `Quick (fun () ->
        with_listener ~rest:echo (fun l ->
            let conns = List.init 4 (fun _ -> dial l) in
            Alcotest.(check (list int)) "ids" [ 1; 2; 3; 4 ] (List.map (fun (_, _, id) -> id) conns);
            List.iter (fun (fd, _, _) -> Unix.close fd) conns));
    t "net: connections rises and falls" `Quick (fun () ->
        with_listener ~rest:echo (fun l ->
            check_int "none yet" 0 (Net.connections l);
            let a, _, _ = dial l in
            let b, _, _ = dial l in
            check_int "two open" 2 (Net.connections l);
            Unix.close a;
            settle "one left" (fun () -> Net.connections l = 1);
            Unix.close b;
            settle "none left" (fun () -> Net.connections l = 0)));
    t "net: after stop_accepting, accepted connections keep working" `Quick (fun () ->
        with_listener ~rest:echo (fun l ->
            let fd, ic, _ = dial l in
            Net.stop_accepting l;
            let oc = Unix.out_channel_of_descr fd in
            output_string oc "still here\n";
            flush oc;
            Alcotest.(check string) "echoed" "still here" (input_line ic);
            check_int "still registered" 1 (Net.connections l);
            Unix.close fd));
    t "net: close joins a handler blocked in a read" `Quick (fun () ->
        let finished = Atomic.make false in
        let l =
          Net.listen ~host:"127.0.0.1" ~port:0 (fun _ fd ->
              let oc = Unix.out_channel_of_descr fd in
              output_string oc "0\n";
              flush oc;
              echo fd;
              Atomic.set finished true)
        in
        let fd, _, _ = dial l in
        Net.close l Unix.SHUTDOWN_RECEIVE;
        check_bool "the handler returned before close did" true (Atomic.get finished);
        check_int "registry empty" 0 (Net.connections l);
        Unix.close fd);
    t "net: a handler that raises closes its fd and leaves the registry" `Quick (fun () ->
        (* the runtime reports the thread's exception on stderr *)
        with_listener ~rest:(fun _ -> failwith "handler bug") (fun l ->
            let fd, ic, _ = dial l in
            check_bool "the peer reads EOF" true
              (match input_line ic with exception End_of_file -> true | _ -> false);
            settle "left the registry" (fun () -> Net.connections l = 0);
            Unix.close fd));
    t "net: a bind on a busy port raises and leaves no fd behind" `Quick (fun () ->
        with_listener (fun l ->
            let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
            let before = open_fds () in
            (match Net.listen ~host:"127.0.0.1" ~port:(Net.port l) (fun _ _ -> ()) with
            | exception Unix.Unix_error _ -> ()
            | l2 ->
                Net.close l2 Unix.SHUTDOWN_ALL;
                Alcotest.fail "bound a busy port");
            check_int "open descriptors" before (open_fds ())));
  ]

let suite =
  net_cases
  @ [
    t "standby follows live writes and serves the same answers" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        with_client primary (fun c ->
                            ignore (ok (Client.assert_ c "edge(1,2)"));
                            ignore (ok (Client.assert_ c "edge(2,3)"));
                            ignore (ok (Client.assert_ c "path(X,Y) :- edge(X,Y)")));
                        wait_caught_up primary standby;
                        let s = standby_status standby in
                        check_bool "records applied" true (s.R.Standby.applied_records >= 3);
                        check_bool "no fatal" true (s.R.Standby.fatal = None);
                        with_client standby (fun c ->
                            check_int "same answers as the primary" 2
                              (List.length (rows_of (Client.query c "path(X,Y)")));
                            (* mutations are refused with READONLY *)
                            match Client.assert_ c "edge(9,9)" with
                            | Error { Client.code = Protocol.Readonly; _ } -> ()
                            | Error { Client.code; _ } ->
                                Alcotest.failf "wrong code %s" (Protocol.err_code_name code)
                            | Ok _ -> Alcotest.fail "standby accepted a mutation");
                        (* writes made while the standby is already
                           attached stream straight through *)
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(3,4)")));
                        wait_caught_up primary standby;
                        with_client standby (fun c ->
                            check_int "the new edge arrived" 3
                              (List.length (rows_of (Client.query c "edge(X,Y)")))))))));
    t "a standby joining after compaction bootstraps from a snapshot" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    with_client primary (fun c ->
                        ignore (ok (Client.assert_ c "edge(1,2)"));
                        ignore (ok (Client.assert_ c "edge(2,3)")));
                    (* rotate: the joining standby can no longer replay
                       generation 1 record by record — it must be seeded *)
                    (match Server.journal primary with
                    | Some j -> J.compact j
                    | None -> Alcotest.fail "no journal");
                    with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(3,4)")));
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        wait_caught_up primary standby;
                        let s = standby_status standby in
                        check_bool "seeded by a snapshot" true
                          (s.R.Standby.snapshots_received >= 1);
                        check_bool "mirroring the post-snapshot generation" true
                          (Int64.compare s.R.Standby.generation 1L > 0);
                        with_client standby (fun c ->
                            check_int "snapshot + tail both present" 3
                              (List.length (rows_of (Client.query c "edge(X,Y)")))))))));
    t "an attached standby follows the primary across a rotation" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(1,2)")));
                        wait_caught_up primary standby;
                        (match Server.journal primary with
                        | Some j -> J.compact j
                        | None -> Alcotest.fail "no journal");
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(2,3)")));
                        wait_caught_up primary standby;
                        let s = standby_status standby in
                        check_bool "crossed the generation boundary" true
                          (Int64.compare s.R.Standby.generation 1L > 0);
                        check_bool "no fatal" true (s.R.Standby.fatal = None);
                        with_client standby (fun c ->
                            check_int "records from both generations" 2
                              (List.length (rows_of (Client.query c "edge(X,Y)")))))))));
    t "promotion: the standby becomes a writable primary, prefix intact" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        with_client primary (fun c ->
                            ignore (ok (Client.assert_ c "edge(1,2)"));
                            ignore (ok (Client.assert_ c "edge(2,3)")));
                        wait_caught_up primary standby;
                        (* the primary dies; the standby takes over *)
                        Server.stop primary;
                        with_client standby (fun c ->
                            ignore (ok (Client.promote c));
                            (* PROMOTE twice is a clean error, not a wedge *)
                            (match Client.promote c with
                            | Error { Client.code = Protocol.Bad_request; _ } -> ()
                            | _ -> Alcotest.fail "second PROMOTE should be BAD_REQUEST");
                            check_bool "no longer a replica" true
                              (Server.replica_status standby = None);
                            check_bool "writes allowed" true (Server.read_only standby = None);
                            ignore (ok (Client.assert_ c "edge(3,4)"));
                            check_int "replicated prefix + new write" 3
                              (List.length (rows_of (Client.query c "edge(X,Y)"))))));
                (* the promoted node's data directory recovers standalone:
                   nothing acked (replicated or written post-promotion)
                   was lost *)
                with_server { Server.default_config with Server.data_dir = Some sdir }
                  (fun reopened ->
                    with_client reopened (fun c ->
                        check_int "durable across restart" 3
                          (List.length (rows_of (Client.query c "edge(X,Y)"))))))));
    t "fan-out: three standbys follow; losing one is invisible to the rest" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun d1 ->
                with_dir (fun d2 ->
                    with_dir (fun d3 ->
                        with_server (primary_cfg pdir) (fun primary ->
                            let ep = ("127.0.0.1", repl_port primary) in
                            with_server (standby_cfg d1 ep) (fun sb1 ->
                                with_server (standby_cfg d2 ep) (fun sb2 ->
                                    let sb3 =
                                      Server.start { (standby_cfg d3 ep) with Server.port = 0 }
                                    in
                                    let stopped3 = ref false in
                                    Fun.protect
                                      ~finally:(fun () ->
                                        if not !stopped3 then Server.stop sb3)
                                    @@ fun () ->
                                    with_client primary (fun c ->
                                        ignore (ok (Client.assert_ c "edge(1,2)"));
                                        ignore (ok (Client.assert_ c "edge(2,3)")));
                                    wait_caught_up primary sb1;
                                    wait_caught_up primary sb2;
                                    wait_caught_up primary sb3;
                                    (* one standby dies mid-topology *)
                                    Server.stop sb3;
                                    stopped3 := true;
                                    with_client primary (fun c ->
                                        ignore (ok (Client.assert_ c "edge(3,4)")));
                                    wait_caught_up primary sb1;
                                    wait_caught_up primary sb2;
                                    List.iter
                                      (fun sb ->
                                        with_client sb (fun c ->
                                            check_int "survivor serves every edge" 3
                                              (List.length
                                                 (rows_of (Client.query c "edge(X,Y)")))))
                                      [ sb1; sb2 ]))))))));
    t "semi-sync: the ack implies the write is already on the standby" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                let cfg =
                  { (primary_cfg pdir) with Server.sync_standbys = 1; sync_timeout_ms = 5_000 }
                in
                with_server cfg (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        wait_caught_up primary standby;
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(1,2)")));
                        (* no settling here: the commit barrier already
                           waited for the standby's acknowledgement *)
                        let s = standby_status standby in
                        let j =
                          match Server.journal primary with
                          | Some j -> j
                          | None -> Alcotest.fail "no journal"
                        in
                        let pgen, poff = J.durable_position j in
                        check_bool "standby at (or past) the acked position" true
                          (Int64.equal s.R.Standby.generation pgen
                          && s.R.Standby.applied_off >= poff);
                        with_client primary (fun c ->
                            check_bool "not degraded" true
                              (metric_value (ok (Client.metrics c)) "xsb_repl_sync_degraded"
                              = Some 0.0)))))));
    t "semi-sync degrades to async with no standby, and recovers" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                let cfg =
                  { (primary_cfg pdir) with Server.sync_standbys = 1; sync_timeout_ms = 500 }
                in
                with_server cfg (fun primary ->
                    (* no standby attached: the commit must still ack
                       (degraded), never freeze the writer *)
                    let t0 = Xsb.Mclock.now () in
                    with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(1,2)")));
                    check_bool "acked without any standby" true (Xsb.Mclock.now () -. t0 < 10.0);
                    with_client primary (fun c ->
                        check_bool "degraded gauge up" true
                          (metric_value (ok (Client.metrics c)) "xsb_repl_sync_degraded"
                          = Some 1.0));
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        wait_caught_up primary standby;
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(2,3)")));
                        with_client primary (fun c ->
                            check_bool "degraded clears once a standby acks in time" true
                              (metric_value (ok (Client.metrics c)) "xsb_repl_sync_degraded"
                              = Some 0.0));
                        wait_caught_up primary standby)))));
    t "ROLE: identity and peers; discover_primary picks the writable node" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                let cfg = { (primary_cfg pdir) with Server.peers = [ ("127.0.0.1", 1) ] } in
                with_server cfg (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        wait_caught_up primary standby;
                        with_client primary (fun c ->
                            match Client.role c with
                            | Error _ -> Alcotest.fail "ROLE refused on the primary"
                            | Ok i ->
                                check_bool "primary role" true
                                  (i.Client.role = Client.Primary_role);
                                check_bool "writable" true (not i.Client.read_only);
                                check_bool "epoch >= 1" true (Int64.compare i.Client.epoch 1L >= 0);
                                check_bool "repl feed advertised" true
                                  (i.Client.repl_port = Some (repl_port primary));
                                check_bool "peers echoed" true
                                  (i.Client.peers = [ ("127.0.0.1", 1) ]));
                        with_client standby (fun c ->
                            match Client.role c with
                            | Error _ ->
                                Alcotest.fail "ROLE refused on the standby (must answer read-only)"
                            | Ok i ->
                                check_bool "standby role" true
                                  (i.Client.role = Client.Standby_role);
                                check_bool "read-only" true i.Client.read_only;
                                check_bool "healthy applier" true (i.Client.fatal = None));
                        let eps =
                          [
                            ("127.0.0.1", Server.port standby);
                            ("127.0.0.1", Server.port primary);
                            ("127.0.0.1", 1);
                          ]
                        in
                        match Client.discover_primary eps with
                        | Some ((_, p), i) ->
                            check_int "discovery lands on the primary" (Server.port primary) p;
                            check_bool "discovered role is primary" true
                              (i.Client.role = Client.Primary_role)
                        | None -> Alcotest.fail "no primary discovered")))));
    t "split-brain: the promoted timeline fences a diverged old primary" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                (let old_primary = Server.start { (primary_cfg pdir) with Server.port = 0 } in
                 let stopped_old = ref false in
                 Fun.protect
                   ~finally:(fun () -> if not !stopped_old then Server.stop old_primary)
                 @@ fun () ->
                 let bcfg =
                   {
                     (standby_cfg sdir ("127.0.0.1", repl_port old_primary)) with
                     Server.repl_port = Some 0;
                     keep_generations = 2;
                   }
                 in
                 with_server bcfg (fun b ->
                     with_client old_primary (fun c ->
                         ignore (ok (Client.assert_ c "edge(1,2)"));
                         ignore (ok (Client.assert_ c "edge(2,3)")));
                     wait_caught_up old_primary b;
                     (* failover while the old primary is still alive
                        and writable: a split brain *)
                     with_client b (fun c -> ignore (ok (Client.promote c)));
                     check_bool "promotion bumped the epoch" true (Server.epoch b = Some 2L);
                     (* both sides accept writes — the timelines diverge *)
                     with_client b (fun c -> ignore (ok (Client.assert_ c "edge(100,101)")));
                     with_client old_primary (fun c ->
                         ignore (ok (Client.assert_ c "edge(666,666)")));
                     Server.stop old_primary;
                     stopped_old := true;
                     (* the deposed primary restarts as a standby of the
                        new timeline: it diverged past epoch 1's fence,
                        so it must be refused, not silently rewound *)
                     with_server (standby_cfg pdir ("127.0.0.1", repl_port b)) (fun fenced ->
                         settle "fencing verdict" (fun () ->
                             (standby_status fenced).R.Standby.fatal <> None);
                         (match (standby_status fenced).R.Standby.fatal with
                         | Some msg -> check_bool "told it is fenced" true (contains msg "fenced")
                         | None -> assert false);
                         with_client fenced (fun c ->
                             check_int "fenced node kept its (divergent) state" 3
                               (List.length (rows_of (Client.query c "edge(X,Y)")))));
                     with_client b (fun c ->
                         check_int "new timeline: replicated prefix + its own write" 3
                           (List.length (rows_of (Client.query c "edge(X,Y)"))))));
                (* the new primary's acked state and epoch survive a
                   restart of its data directory *)
                with_server { Server.default_config with Server.data_dir = Some sdir }
                  (fun reopened ->
                    check_bool "epoch durable on the new timeline" true
                      (Server.epoch reopened = Some 2L);
                    with_client reopened (fun c ->
                        check_int "acked prefix + post-promotion write" 3
                          (List.length (rows_of (Client.query c "edge(X,Y)"))))))));
    t "auto-promote: a silent primary is failed over, epoch bumped" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                let primary = Server.start { (primary_cfg pdir) with Server.port = 0 } in
                let stopped = ref false in
                Fun.protect ~finally:(fun () -> if not !stopped then Server.stop primary)
                @@ fun () ->
                let bcfg =
                  {
                    (standby_cfg sdir ("127.0.0.1", repl_port primary)) with
                    Server.auto_promote = true;
                    failover_timeout_ms = 400;
                    repl_port = Some 0;
                    keep_generations = 2;
                  }
                in
                with_server bcfg (fun b ->
                    with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(1,2)")));
                    wait_caught_up primary b;
                    (* the primary dies; nobody calls PROMOTE *)
                    Server.stop primary;
                    stopped := true;
                    settle ~timeout:20.0 "automatic promotion" (fun () ->
                        Server.replica_status b = None && Server.read_only b = None);
                    check_bool "epoch bumped by the automatic promotion" true
                      (Server.epoch b = Some 2L);
                    with_client b (fun c ->
                        ignore (ok (Client.assert_ c "edge(2,3)"));
                        check_int "old prefix + new write" 2
                          (List.length (rows_of (Client.query c "edge(X,Y)"))))))));
    t "crash injection at every replication I/O site: the stream converges" `Quick (fun () ->
        let cases =
          [
            ("repl.stream.send", Xsb.Failpoint.Crash);
            ("repl.stream.send", Xsb.Failpoint.Short_write 3);
            ("repl.standby.apply", Xsb.Failpoint.Crash);
            ("repl.standby.ack", Xsb.Failpoint.Crash);
            ("mirror.write", Xsb.Failpoint.Crash);
            ("mirror.write", Xsb.Failpoint.Short_write 3);
            ("mirror.sync", Xsb.Failpoint.Crash);
          ]
        in
        List.iter
          (fun (site, action) ->
            List.iter
              (fun after ->
                Fun.protect ~finally:Xsb.Failpoint.reset @@ fun () ->
                with_dir (fun pdir ->
                    with_dir (fun sdir ->
                        with_server (primary_cfg pdir) (fun primary ->
                            with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                              (fun standby ->
                                wait_caught_up primary standby;
                                Xsb.Failpoint.arm ~after site action;
                                (* write until the armed site has fired
                                   (the streamer coalesces records into
                                   chunks, so a fixed count could pass
                                   under the seed), pacing slightly so
                                   each record ships in its own frame *)
                                let wrote = ref 0 in
                                with_client primary (fun c ->
                                    while
                                      !wrote < 4
                                      || (Xsb.Failpoint.hits site <= after && !wrote < 60)
                                    do
                                      incr wrote;
                                      ignore
                                        (ok
                                           (Client.assert_ c
                                              (Printf.sprintf "edge(%d,%d)" !wrote (!wrote + 1))));
                                      Thread.delay 0.01
                                    done);
                                check_bool (site ^ " actually triggered") true
                                  (Xsb.Failpoint.hits site > after);
                                (* the injected crash drops the stream;
                                   the standby reconnects and resumes
                                   from its mirrored position — every
                                   acked record converges exactly once *)
                                wait_caught_up primary standby;
                                with_client standby (fun c ->
                                    check_int
                                      (Printf.sprintf "converged after %s (seed %d)" site after)
                                      !wrote
                                      (List.length (rows_of (Client.query c "edge(X,Y)")))))))))
              [ 0; 3 ])
          cases);
    t "call: a READONLY refusal re-sends only that request, to the rediscovered primary"
      `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun adir ->
                with_dir (fun bdir ->
                    with_server (primary_cfg pdir) (fun primary ->
                        let feed = ("127.0.0.1", repl_port primary) in
                        with_server (standby_cfg adir feed) (fun a ->
                            with_server (standby_cfg bdir feed) (fun b ->
                                wait_caught_up primary a;
                                wait_caught_up primary b;
                                let eps =
                                  [ ("127.0.0.1", Server.port a); ("127.0.0.1", Server.port b) ]
                                in
                                let policy =
                                  Client.retry ~retries:3 ~backoff_ms:1.0 ~sleep:(fun _ -> ()) ()
                                in
                                let c = Client.conn ~endpoints:eps (Server.port a) in
                                let call op f =
                                  match Client.call ~policy c op f with
                                  | Ok v -> v
                                  | Error (Client.Refused { code; message }) ->
                                      Alcotest.failf "refused %s: %s"
                                        (Protocol.err_code_name code) message
                                  | Error (Client.Failed why) -> Alcotest.failf "failed: %s" why
                                in
                                Fun.protect
                                  ~finally:(fun () -> Client.close_conn c)
                                  (fun () ->
                                    (* no endpoint is a writable primary yet: the
                                       connection starts at the standby [a] *)
                                    ignore (call Protocol.Ping Client.ping);
                                    with_client b (fun bc -> ignore (ok (Client.promote bc)));
                                    ignore
                                      (call Protocol.Assert (fun t ->
                                           Client.assert_ t "edge(7,8)")));
                                let series server family labels =
                                  match
                                    Xsb.Metrics.Exposition.validate
                                      (Xsb.Metrics.to_text (Server.registry server))
                                  with
                                  | Error why -> Alcotest.failf "invalid exposition: %s" why
                                  | Ok samples ->
                                      int_of_float
                                        (Option.value ~default:0.0
                                           (Xsb.Metrics.Exposition.find ~labels samples family))
                                in
                                let requests server op =
                                  series server "xsb_request_duration_seconds_count"
                                    [ ("op", op) ]
                                in
                                check_int "the standby saw the PING once" 1 (requests a "PING");
                                check_int "the new primary never saw it" 0 (requests b "PING");
                                check_int "the standby refused the ASSERT once" 1
                                  (series a "xsb_requests_by_outcome_total"
                                     [ ("outcome", "readonly") ]);
                                check_int "the ASSERT reached the standby once" 1
                                  (requests a "ASSERT");
                                check_int "the ASSERT landed once on the new primary" 1
                                  (requests b "ASSERT");
                                with_client b (fun bc ->
                                    check_int "and is there" 1
                                      (List.length (rows_of (Client.query bc "edge(7,8)")))))))))));
    t "a standby's generation archives are byte-identical to its primary's" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    with_server
                      { (standby_cfg sdir ("127.0.0.1", repl_port primary)) with
                        Server.keep_generations = 2 }
                      (fun standby ->
                        let n = ref 0 in
                        let write () =
                          with_client primary (fun c ->
                              for _ = 1 to 3 do
                                incr n;
                                ignore (ok (Client.assert_ c (Printf.sprintf "edge(%d,%d)" !n !n)))
                              done);
                          wait_caught_up primary standby
                        in
                        (* two rotations, each followed by writes that
                           refill the new journal.log *)
                        write ();
                        compact_primary primary;
                        write ();
                        compact_primary primary;
                        write ();
                        let names = archives sdir in
                        check_bool "the standby archived both generations" true
                          (List.mem "journal.1.log" names && List.mem "journal.2.log" names);
                        List.iter
                          (fun name ->
                            check_bool (name ^ " is byte-identical to the primary's") true
                              (read_bytes (Filename.concat sdir name)
                              = read_bytes (Filename.concat pdir name)))
                          names;
                        List.iter
                          (fun g ->
                            let recovered dir =
                              J.recover_at ~dir ~generation:g (Xsb.Database.create ())
                            in
                            check_int
                              (Printf.sprintf "recover_at generation %Ld on the standby" g)
                              (recovered pdir) (recovered sdir))
                          [ 1L; 2L ])))));
    t "a failed mirror fsync parks the standby: never applied, never acked" `Quick (fun () ->
        Fun.protect ~finally:Xsb.Failpoint.reset @@ fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                let cfg =
                  { (primary_cfg pdir) with Server.sync_standbys = 1; sync_timeout_ms = 300 }
                in
                with_server cfg (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        wait_caught_up primary standby;
                        Xsb.Failpoint.arm "mirror.sync" Xsb.Failpoint.Fail;
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(1,2)")));
                        settle "the standby parks" (fun () ->
                            (standby_status standby).R.Standby.fatal <> None);
                        (match (standby_status standby).R.Standby.fatal with
                        | Some msg -> check_bool "names the failed site" true (contains msg "mirror.sync")
                        | None -> assert false);
                        with_client standby (fun c ->
                            check_int "the row was not applied" 0
                              (List.length (rows_of (Client.query c "edge(X,Y)"))));
                        with_client primary (fun c ->
                            check_bool "the write was not counted as replicated" true
                              (metric_value (ok (Client.metrics c)) "xsb_repl_sync_degraded"
                              = Some 1.0)))))));
    t "a standby publishes no journal figures until it is promoted" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    with_server (standby_cfg sdir ("127.0.0.1", repl_port primary))
                      (fun standby ->
                        with_client primary (fun c ->
                            ignore (ok (Client.assert_ c "edge(1,2)"));
                            ignore (ok (Client.assert_ c "edge(2,3)")));
                        wait_caught_up primary standby;
                        check_bool "records applied" true
                          ((standby_status standby).R.Standby.applied_records >= 2);
                        let scrape c =
                          match Xsb.Metrics.Exposition.validate (ok (Client.metrics c)) with
                          | Ok samples -> samples
                          | Error why -> Alcotest.failf "invalid exposition: %s" why
                        in
                        let journal_family (family, _) =
                          String.length family >= 12 && String.sub family 0 12 = "xsb_journal_"
                        in
                        with_client standby (fun c ->
                            check_bool "no xsb_journal_ sample" false
                              (List.exists journal_family (scrape c));
                            check_bool "no journal: line" false
                              (contains (ok (Client.statistics c)) "journal:");
                            ignore (ok (Client.promote c));
                            let epoch = Xsb.Metrics.Exposition.find (scrape c) "xsb_journal_epoch" in
                            check_bool "xsb_journal_epoch is the promoted epoch" true
                              (Option.map Int64.of_float epoch = Server.epoch standby);
                            check_bool "journal: line back" true
                              (contains (ok (Client.statistics c)) "journal:")))))));
    t "a standby restarts from its own mirror, with no new snapshot" `Quick (fun () ->
        with_dir (fun pdir ->
            with_dir (fun sdir ->
                with_server (primary_cfg pdir) (fun primary ->
                    let scfg = standby_cfg sdir ("127.0.0.1", repl_port primary) in
                    with_server scfg (fun standby ->
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(1,2)")));
                        wait_caught_up primary standby;
                        compact_primary primary;
                        with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(2,3)")));
                        wait_caught_up primary standby;
                        check_bool "crossed the rotation" true
                          (Int64.equal (standby_status standby).R.Standby.generation 2L));
                    with_client primary (fun c -> ignore (ok (Client.assert_ c "edge(3,4)")));
                    with_server scfg (fun standby ->
                        wait_caught_up primary standby;
                        let s = standby_status standby in
                        check_int "resumed without a snapshot" 0 s.R.Standby.snapshots_received;
                        with_client standby (fun c ->
                            check_int "converged" 3
                              (List.length (rows_of (Client.query c "edge(X,Y)"))));
                        let durable =
                          match Server.journal primary with
                          | Some j -> snd (J.durable_position j)
                          | None -> Alcotest.fail "no journal"
                        in
                        let mirrored = read_bytes (Filename.concat sdir "journal.log") in
                        check_bool "journal.log is the primary's durable prefix" true
                          (mirrored
                          = String.sub
                              (read_bytes (Filename.concat pdir "journal.log"))
                              0 durable))))));
  ]
