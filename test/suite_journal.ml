(* Crash-safe persistence (ISSUE PR 5): the journal record codec
   (round-trips, bit flips, truncation), recovery semantics (torn
   tails, mid-file corruption, stale generations, compaction), fault
   injection with a kill-and-recover property walking every I/O site,
   the remove_pred staleness regression, client retry backoff, and the
   durable server mode. *)

open Xsb_server
module J = Xsb.Journal
module R = Xsb.Record
module F = Xsb.Failpoint

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- scratch directories --- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsb_journal_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- term helpers and a database fingerprint --- *)

let tm f args = Xsb.Term.Struct (f, Array.of_list args)
let i n = Xsb.Term.Int n
let clause_canon head body = Xsb.Canon.of_term (Xsb.Term.Struct (":-", [| head; body |]))

let index_spec_str = function
  | Xsb.Pred.Fields combos ->
      "fields"
      ^ String.concat ""
          (List.map (fun c -> "[" ^ String.concat "," (List.map string_of_int c) ^ "]") combos)
  | Xsb.Pred.First_string_index -> "first_string"
  | Xsb.Pred.Disc_tree_index -> "disc_tree"

(* the predicates alone: what an object image carries *)
let pred_fingerprint db =
  let clause_str (c : Xsb.Pred.clause) =
    Fmt.str "%a" Xsb.Canon.pp (clause_canon c.Xsb.Pred.head c.Xsb.Pred.body)
  in
  let pred_line p =
    Printf.sprintf "%s/%d %s tabled=%b mode=%s index=%s [%s]" (Xsb.Pred.name p)
      (Xsb.Pred.arity p)
      (match Xsb.Pred.kind p with Xsb.Pred.Dynamic -> "dynamic" | Xsb.Pred.Static -> "static")
      (Xsb.Pred.tabled p)
      (Xsb.Pred.table_mode_to_string (Xsb.Pred.table_mode p))
      (index_spec_str (Xsb.Pred.index_spec p))
      (String.concat "; " (List.map clause_str (Xsb.Pred.clauses p)))
  in
  String.concat "\n" (List.sort compare (List.map pred_line (Xsb.Database.preds db)))

let fingerprint db =
  String.concat "\n"
    [
      pred_fingerprint db;
      "hilog: " ^ String.concat "," (List.sort_uniq compare (Xsb.Database.hilog_symbols db));
      "modules: "
      ^ String.concat ","
          (List.sort_uniq compare
             (List.map
                (fun (m : Xsb.Database.module_info) ->
                  Printf.sprintf "%s(%s)" m.Xsb.Database.module_name
                    (String.concat ";"
                       (List.map (fun (n, a) -> Printf.sprintf "%s/%d" n a) m.Xsb.Database.exports)))
                (Xsb.Database.modules db)));
    ]

(* the bytes Obj_file.save_all writes for [db] *)
let image_bytes db =
  let path = Filename.temp_file "xsb_image" ".obj" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xsb.Obj_file.save_all db path;
      In_channel.with_open_bin path In_channel.input_all)

(* --- the record codec --- *)

let sample_mutations =
  [
    R.Add_clause
      {
        name = "edge";
        arity = 2;
        front = false;
        dynamic = true;
        clause = clause_canon (tm "edge" [ i 1; i 2 ]) (Xsb.Term.Atom "true");
      };
    R.Add_clause
      {
        name = "path";
        arity = 2;
        front = true;
        dynamic = false;
        clause =
          clause_canon
            (tm "path" [ Xsb.Term.fresh_var (); Xsb.Term.fresh_var () ])
            (tm "edge" [ Xsb.Term.fresh_var (); Xsb.Term.fresh_var () ]);
      };
    R.Retract_clause
      {
        name = "edge";
        arity = 2;
        clause = clause_canon (tm "edge" [ i 1; i 2 ]) (Xsb.Term.Atom "true");
      };
    R.Remove_pred { name = "p"; arity = 1 };
    R.Set_tabled { name = "path"; arity = 2 };
    R.Set_table_mode { name = "reach"; arity = 2; mode = Xsb.Pred.Incremental };
    R.Set_table_mode
      { name = "sp"; arity = 3; mode = Xsb.Pred.Subsumptive Xsb.Answer_store.Subsumption.Min };
    R.Set_table_mode
      { name = "n"; arity = 2; mode = Xsb.Pred.Subsumptive Xsb.Answer_store.Subsumption.Count };
    R.Set_dynamic { name = "q"; arity = 3 };
    R.Set_index
      { name = "edge"; arity = 2; spec = Xsb.Pred.Fields [ [ 1 ]; [ 2; 1 ] ]; size_hint = Some 64 };
    R.Set_index { name = "word"; arity = 2; spec = Xsb.Pred.First_string_index; size_hint = None };
    R.Set_index { name = "term"; arity = 1; spec = Xsb.Pred.Disc_tree_index; size_hint = None };
    R.Declare_hilog "h";
    R.Declare_module { module_name = "m"; exports = [ ("p", 1); ("q", 2) ] };
    R.Declare_op { priority = 700; fixity = "xfx"; op_name = "==>" };
  ]

let codec_cases =
  [
    t "every mutation variant round-trips through the codec" `Quick (fun () ->
        List.iter
          (fun m ->
            let m' = R.decode (R.encode m) in
            check_bool "round trip" true (m = m'))
          sample_mutations);
    t "a flipped bit anywhere in a frame never yields a record" `Quick (fun () ->
        List.iter
          (fun m ->
            let framed = J.frame_record m in
            for off = 0 to String.length framed - 1 do
              List.iter
                (fun bit ->
                  let b = Bytes.of_string framed in
                  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor bit));
                  match J.read_framed (Bytes.to_string b) 0 with
                  | J.Record _ -> Alcotest.failf "bit 0x%02x at offset %d decoded" bit off
                  | J.End_clean -> Alcotest.failf "bit 0x%02x at offset %d read as clean EOF" bit off
                  | J.End_torn | J.Corrupt _ -> ())
                [ 0x01; 0x80 ]
            done)
          [ List.nth sample_mutations 0; List.nth sample_mutations 11 ]);
    t "every truncation of a record stream is a clean prefix" `Quick (fun () ->
        let records = List.filteri (fun idx _ -> idx < 5) sample_mutations in
        let frames = List.map J.frame_record records in
        let buf = String.concat "" frames in
        (* offsets at which a whole number of records ends *)
        let boundaries =
          List.rev (List.fold_left (fun acc f -> (List.hd acc + String.length f) :: acc) [ 0 ] frames)
        in
        for cut = 0 to String.length buf do
          let b = String.sub buf 0 cut in
          let rec scan acc pos =
            match J.read_framed b pos with
            | J.Record (m, next) -> scan (m :: acc) next
            | J.End_clean -> (List.rev acc, `Clean)
            | J.End_torn -> (List.rev acc, `Torn)
            | J.Corrupt msg -> Alcotest.failf "cut at %d: corrupt: %s" cut msg
          in
          let got, status = scan [] 0 in
          let complete = List.length (List.filter (fun b -> b > 0 && b <= cut) boundaries) in
          check_int (Printf.sprintf "records at cut %d" cut) complete (List.length got);
          check_bool "prefix" true (got = List.filteri (fun idx _ -> idx < complete) records);
          check_bool "clean exactly at boundaries" (List.mem cut boundaries) (status = `Clean)
        done);
    t "decode_mutation rejects garbage with Corrupt_record" `Quick (fun () ->
        List.iter
          (fun s ->
            match R.decode s with
            | exception R.Corrupt_record _ -> ()
            | _ -> Alcotest.failf "decoded %S" s)
          [
            "";
            "\xff";
            "\x00";
            "\x63";
            R.encode (List.nth sample_mutations 0) ^ "x";
            "\x06\x00\x00\xff\xffhuge";
          ]);
    t "sync policy names parse" `Quick (fun () ->
        check_bool "never" true (J.sync_policy_of_string "never" = Some J.Never);
        check_bool "always" true (J.sync_policy_of_string "Always" = Some J.Always);
        check_bool "interval" true (J.sync_policy_of_string "interval" = Some (J.Interval 64));
        check_bool "interval=4" true (J.sync_policy_of_string "interval=4" = Some (J.Interval 4));
        check_bool "bare count" true (J.sync_policy_of_string "16" = Some (J.Interval 16));
        check_bool "junk" true (J.sync_policy_of_string "sometimes" = None);
        check_bool "zero" true (J.sync_policy_of_string "interval=0" = None))
  ]

(* --- journal lifecycle --- *)

(* a representative spread of mutations driven through the public
   Database API with the journal attached *)
let populate db =
  let edge = Xsb.Database.set_dynamic db "edge" 2 in
  ignore (Xsb.Database.insert_clause db edge ~head:(tm "edge" [ i 1; i 2 ]) ~body:(Xsb.Term.Atom "true"));
  ignore (Xsb.Database.insert_clause db edge ~head:(tm "edge" [ i 2; i 3 ]) ~body:(Xsb.Term.Atom "true"));
  ignore
    (Xsb.Database.insert_clause db ~front:true edge ~head:(tm "edge" [ i 0; i 1 ])
       ~body:(Xsb.Term.Atom "true"));
  (match Xsb.Pred.clauses edge with
  | c :: _ -> Xsb.Database.retract_clause db edge c
  | [] -> Alcotest.fail "no clause to retract");
  let doomed = Xsb.Database.set_dynamic db "doomed" 1 in
  ignore (Xsb.Database.insert_clause db doomed ~head:(tm "doomed" [ i 9 ]) ~body:(Xsb.Term.Atom "true"));
  Xsb.Database.remove_pred db "doomed" 1;
  Xsb.Database.set_tabled db "path" 2;
  Xsb.Database.set_index db "edge" 2 (Xsb.Pred.Fields [ [ 1 ] ]);
  Xsb.Database.add_op db 700 Xsb.Ops.XFX "==>";
  Xsb.Database.declare_hilog db "h";
  Xsb.Database.declare_module db "m" [ ("edge", 2) ]

let edge_count db =
  match Xsb.Database.find db "edge" 2 with
  | Some p -> Xsb.Pred.clause_count p
  | None -> 0

let assert_edge db a b =
  let edge = Xsb.Database.set_dynamic db "edge" 2 in
  ignore (Xsb.Database.insert_clause db edge ~head:(tm "edge" [ i a; i b ]) ~body:(Xsb.Term.Atom "true"))

let lifecycle_cases =
  [
    t "recovery replays to an identical database" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            populate db;
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            check_string "identical state" (fingerprint db) (fingerprint db2);
            check_bool "records replayed" true ((J.stats j2).J.recovered_records > 0);
            check_bool "stats json has the generation" true
              (let s = Xsb.Json.to_string (J.stats_json j2) in
               String.length s > 0
               &&
               let re = "generation" in
               let rec find k =
                 k + String.length re <= String.length s
                 && (String.sub s k (String.length re) = re || find (k + 1))
               in
               find 0);
            J.close j2))
  ;
    t "sync=interval fsyncs every n records; sync=never only on demand" `Quick (fun () ->
        (* declare the predicate before attaching so each insert below
           is exactly one journal record *)
        let insert db pred a b =
          ignore
            (Xsb.Database.insert_clause db pred ~head:(tm "edge" [ i a; i b ])
               ~body:(Xsb.Term.Atom "true"))
        in
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let edge = Xsb.Database.set_dynamic db "edge" 2 in
            let j = J.open_ { (J.default_config ~dir) with J.sync = J.Interval 3 } db in
            J.attach j;
            let d0 = J.durable_bytes j in
            insert db edge 1 2;
            insert db edge 2 3;
            check_int "not yet fsynced" d0 (J.durable_bytes j);
            check_bool "but written" true (J.written_bytes j > d0);
            insert db edge 3 4;
            check_int "third record syncs" (J.written_bytes j) (J.durable_bytes j);
            J.close j);
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let edge = Xsb.Database.set_dynamic db "edge" 2 in
            let j = J.open_ { (J.default_config ~dir) with J.sync = J.Never } db in
            J.attach j;
            let d0 = J.durable_bytes j in
            insert db edge 1 2;
            insert db edge 2 3;
            check_int "never fsyncs on append" d0 (J.durable_bytes j);
            J.sync j;
            check_int "explicit sync" (J.written_bytes j) (J.durable_bytes j);
            J.close j));
    t "auto-compaction snapshots, rotates and preserves state" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ { (J.default_config ~dir) with J.sync = J.Never; compact_bytes = 1500 } db in
            J.attach j;
            for k = 1 to 60 do
              assert_edge db k (k + 1)
            done;
            check_bool "compacted at least once" true ((J.stats j).J.compactions >= 1);
            check_bool "generation advanced" true (J.generation j >= 2L);
            check_bool "snapshot exists" true (Sys.file_exists (Filename.concat dir "snapshot.bin"));
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ { (J.default_config ~dir) with J.sync = J.Never; compact_bytes = 0 } db2 in
            check_string "identical after snapshot+tail replay" (fingerprint db) (fingerprint db2);
            J.close j2));
    t "a torn tail is dropped and the file truncated back" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            for k = 1 to 5 do
              assert_edge db k k
            done;
            J.close j;
            let jpath = Filename.concat dir "journal.log" in
            let size = (Unix.stat jpath).Unix.st_size in
            let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
            Unix.ftruncate fd (size - 3);
            Unix.close fd;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            check_int "last record dropped" 4 (edge_count db2);
            check_bool "torn bytes counted" true ((J.stats j2).J.torn_bytes_dropped > 0);
            check_bool "file truncated to the valid prefix" true
              ((Unix.stat jpath).Unix.st_size < size - 3);
            (* the recovered journal accepts new writes *)
            J.attach j2;
            assert_edge db2 5 5;
            J.close j2;
            let db3 = Xsb.Database.create () in
            let j3 = J.open_ (J.default_config ~dir) db3 in
            check_int "re-appended after recovery" 5 (edge_count db3);
            J.close j3));
    t "corruption before the tail raises a typed Recovery_error" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            for k = 1 to 5 do
              assert_edge db k k
            done;
            J.close j;
            let jpath = Filename.concat dir "journal.log" in
            let bytes =
              let ic = open_in_bin jpath in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))
            in
            (* flip a payload byte of the FIRST record: valid frames
               follow, so this cannot be a torn tail *)
            Bytes.set bytes 36 (Char.chr (Char.code (Bytes.get bytes 36) lxor 0x40));
            Out_channel.with_open_bin jpath (fun oc -> output_bytes oc bytes);
            (match J.open_ (J.default_config ~dir) (Xsb.Database.create ()) with
            | exception J.Recovery_error { records_ok; offset; _ } ->
                check_int "no record before the corruption" 0 records_ok;
                check_int "corruption located at the first record" J.header_len offset
            | j ->
                J.close j;
                Alcotest.fail "expected Recovery_error");
            (* the valid prefix (here: nothing) is still recoverable *)
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ ~tolerate_corruption:true (J.default_config ~dir) db2 in
            check_int "salvaged prefix" 0 (edge_count db2);
            J.attach j2;
            assert_edge db2 1 1;
            J.close j2;
            let db3 = Xsb.Database.create () in
            let j3 = J.open_ (J.default_config ~dir) db3 in
            check_int "clean again after salvage" 1 (edge_count db3);
            J.close j3));
    t "a stale-generation journal is never replayed twice" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ { (J.default_config ~dir) with J.sync = J.Always; compact_bytes = 0 } db in
            J.attach j;
            for k = 1 to 3 do
              assert_edge db k k
            done;
            (* keep the pre-compaction journal (generation 1, 3 records) *)
            let jpath = Filename.concat dir "journal.log" in
            let saved =
              let ic = open_in_bin jpath in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            J.compact j;
            J.close j;
            (* simulate a crash between the snapshot publish and the
               journal rotation: the old journal is back on disk, but
               the snapshot already contains its records *)
            Out_channel.with_open_bin jpath (fun oc -> output_string oc saved);
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            check_int "records not doubled" 3 (edge_count db2);
            check_bool "journal rotated past the snapshot" true (J.generation j2 >= 2L);
            J.close j2));
  ]

(* --- fault injection --- *)

let failpoint_cases =
  [
    t "an injected write failure poisons the journal (sticky Io_error)" `Quick (fun () ->
        F.reset ();
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            assert_edge db 1 1;
            F.arm "journal.append.write" F.Fail;
            (match assert_edge db 2 2 with
            | exception J.Io_error { site; _ } -> check_string "site" "journal.append.write" site
            | () -> Alcotest.fail "expected Io_error");
            (* the failpoint is one-shot, but the poisoning is sticky *)
            (match assert_edge db 3 3 with
            | exception J.Io_error _ -> ()
            | () -> Alcotest.fail "expected sticky Io_error");
            check_bool "failed surfaced" true (J.failed j = Some "journal.append.write");
            (* the acknowledged prefix is intact on disk *)
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            check_int "acked prefix preserved" 1 (edge_count db2);
            J.close j2);
        F.reset ());
    t "a short write leaves a recoverable torn tail" `Quick (fun () ->
        F.reset ();
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            assert_edge db 1 1;
            assert_edge db 2 2;
            F.arm "journal.append.write" (F.Short_write 5);
            (match assert_edge db 3 3 with
            | exception F.Injected_crash _ -> ()
            | () -> Alcotest.fail "expected Injected_crash");
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            check_int "torn record dropped" 2 (edge_count db2);
            check_int "five torn bytes" 5 (J.stats j2).J.torn_bytes_dropped;
            J.close j2);
        F.reset ());
  ]

(* --- the kill-and-recover property ---

   A scripted random mutation stream runs with the journal attached
   (sync=always, aggressive auto-compaction). Every named I/O site is
   then crashed at several of its hit points; after each crash the
   surviving bytes (only what was fsynced, unless a rotation already
   published more) are recovered into a fresh database, which must
   equal the database produced by the acknowledged mutation prefix —
   or prefix+1 for the one record that can be durable but unacked
   (a crash inside the compaction it triggered). *)

type wop =
  | WAssert of string * int * int * bool
  | WRetract of string * int * int
  | WRemove of string
  | WTable of string
  | WIndex of string
  | WHilog of string
  | WOp of string
  | WModule of string

let apply_wop db = function
  | WAssert (p, a, b, front) ->
      let pred = Xsb.Database.set_dynamic db p 2 in
      ignore
        (Xsb.Database.insert_clause db ~front pred ~head:(tm p [ i a; i b ])
           ~body:(Xsb.Term.Atom "true"))
  | WRetract (p, a, b) -> (
      match Xsb.Database.find db p 2 with
      | None -> ()
      | Some pred -> (
          let target = Xsb.Canon.of_term (tm p [ i a; i b ]) in
          match
            List.find_opt
              (fun (c : Xsb.Pred.clause) ->
                Xsb.Canon.equal (Xsb.Canon.of_term c.Xsb.Pred.head) target)
              (Xsb.Pred.clauses pred)
          with
          | Some c -> Xsb.Database.retract_clause db pred c
          | None -> ()))
  | WRemove p -> Xsb.Database.remove_pred db p 2
  | WTable p -> Xsb.Database.set_tabled db p 2
  | WIndex p -> Xsb.Database.set_index db p 2 (Xsb.Pred.Fields [ [ 1 ] ])
  | WHilog s -> Xsb.Database.declare_hilog db s
  | WOp name -> Xsb.Database.add_op db 700 Xsb.Ops.XFX name
  | WModule name -> Xsb.Database.declare_module db name [ ("edge", 2) ]

let gen_stream seed n =
  let st = Random.State.make [| seed |] in
  let pred () = List.nth [ "edge"; "link"; "arc" ] (Random.State.int st 3) in
  let small () = Random.State.int st 5 in
  List.init n (fun _ ->
      match Random.State.int st 100 with
      | x when x < 45 -> WAssert (pred (), small (), small (), Random.State.bool st)
      | x when x < 62 -> WRetract (pred (), small (), small ())
      | x when x < 70 -> WRemove (pred ())
      | x when x < 78 -> WTable (pred ())
      | x when x < 84 -> WIndex (pred ())
      | x when x < 90 -> WHilog (Printf.sprintf "h%d" (Random.State.int st 2))
      | x when x < 95 -> WOp (Printf.sprintf "op%d" (Random.State.int st 2))
      | _ -> WModule (Printf.sprintf "m%d" (Random.State.int st 2)))

let action_name = function
  | F.Fail -> "fail"
  | F.Crash -> "crash"
  | F.Short_write n -> Printf.sprintf "short-write(%d)" n

let crash_everywhere seed =
  let ops = gen_stream seed 40 in
  let n_ops = List.length ops in
  (* The journal's atomicity unit is the mutation record, and one
     workload op can emit several (e.g. Set_dynamic then Add_clause on
     a fresh predicate), so a crash may persist a durable prefix of the
     op in flight. Record the deterministic mutation stream and the
     per-op cumulative record counts to phrase the invariant exactly. *)
  let muts, cum =
    let db = Xsb.Database.create () in
    let acc = ref [] in
    Xsb.Database.on_mutation db (fun m -> acc := R.of_db_mutation m :: !acc);
    let cum = Array.make (n_ops + 1) 0 in
    List.iteri
      (fun idx op ->
        apply_wop db op;
        cum.(idx + 1) <- List.length !acc)
      ops;
    (Array.of_list (List.rev !acc), cum)
  in
  let expected_at m =
    let db = Xsb.Database.create () in
    for k = 0 to m - 1 do
      R.apply db muts.(k)
    done;
    fingerprint db
  in
  let cfg dir = { (J.default_config ~dir) with J.sync = J.Always; compact_bytes = 1500 } in
  (* clean run: everything acks, and we learn which sites the workload
     hits how often *)
  F.reset ();
  with_dir (fun dir ->
      let db = Xsb.Database.create () in
      let j = J.open_ (cfg dir) db in
      J.attach j;
      List.iter (apply_wop db) ops;
      J.close j;
      let db2 = Xsb.Database.create () in
      let j2 = J.open_ (cfg dir) db2 in
      check_string "clean run recovers fully" (fingerprint db) (fingerprint db2);
      J.close j2);
  let sites = F.all_hits () in
  F.reset ();
  check_bool "the workload exercises several I/O sites" true (List.length sites >= 4);
  let points hits = List.sort_uniq compare [ 0; hits / 3; 2 * hits / 3; hits - 1 ] in
  List.iter
    (fun (site, hits) ->
      List.iter
        (fun action ->
          List.iter
            (fun k ->
              with_dir (fun dir ->
                  F.reset ();
                  F.arm ~after:k site action;
                  let db = Xsb.Database.create () in
                  let j = J.open_ (cfg dir) db in
                  J.attach j;
                  let acked = ref 0 in
                  let crashed =
                    try
                      List.iter
                        (fun op ->
                          apply_wop db op;
                          incr acked)
                        ops;
                      J.close j;
                      false
                    with F.Injected_crash _ -> true
                  in
                  F.reset ();
                  (* model the page cache dying with the process: only
                     fsynced bytes survive — unless a rotation already
                     replaced the file with a shorter one *)
                  (if crashed then
                     let jpath = Filename.concat dir "journal.log" in
                     let durable = J.durable_bytes j in
                     let size = (Unix.stat jpath).Unix.st_size in
                     if durable < size then begin
                       let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
                       Unix.ftruncate fd durable;
                       Unix.close fd
                     end);
                  (* recovery must succeed without tolerate_corruption *)
                  let db2 = Xsb.Database.create () in
                  let j2 = J.open_ (cfg dir) db2 in
                  let got = fingerprint db2 in
                  let a = !acked in
                  (* every record of the acked ops must survive; of the
                     op in flight, any durable record prefix may *)
                  let lo = cum.(a) and hi = cum.(min (a + 1) n_ops) in
                  let rec matches m = m <= hi && (got = expected_at m || matches (m + 1)) in
                  if not (matches lo) then
                    Alcotest.failf
                      "seed %d, %s at %s hit %d: recovered state is not an acked record prefix \
                       (acked %d of %d ops, records %d..%d)"
                      seed (action_name action) site k a n_ops lo hi;
                  (* and the store stays writable after recovery *)
                  J.attach j2;
                  apply_wop db2 (WAssert ("post", 9, 9, false));
                  J.close j2;
                  let db3 = Xsb.Database.create () in
                  let j3 = J.open_ (cfg dir) db3 in
                  check_bool "writable after recovery" true
                    (Xsb.Database.find db3 "post" 2 <> None);
                  J.close j3))
            (points hits))
        [ F.Crash; F.Short_write 5 ])
    sites;
  F.reset ()

let property_seeds =
  match Sys.getenv_opt "XSB_JOURNAL_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> [ n ]
      | None -> [ 11; 42 ])
  | None -> [ 11; 42 ]

let property_cases =
  List.map
    (fun seed ->
      t (Printf.sprintf "kill-and-recover at every I/O site (seed %d)" seed) `Quick (fun () ->
          crash_everywhere seed))
    property_seeds

(* --- the remove_pred regression ---

   Before this PR, removing a predicate left its completed tables, its
   table_all registration effects and its HiLog flag behind, so a
   re-declared predicate inherited stale state. *)

let remove_pred_cases =
  [
    t "re-created predicate does not see stale completed tables" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s ":- table p/1.\np(1).\np(2).\n";
        let db = Xsb.Session.db s in
        let eng = Xsb.Session.engine s in
        let count () =
          let goal = Xsb.Parser.term_of_string ~ops:(Xsb.Database.ops db) "p(X)" in
          match Xsb.Engine.run_bounded eng goal with
          | `Answers sols -> List.length sols
          | `Truncated _ | `Timeout _ -> Alcotest.fail "unexpected bound"
        in
        check_int "two answers tabled" 2 (count ());
        Xsb.Database.remove_pred db "p" 1;
        let p = Xsb.Database.set_dynamic db "p" 1 in
        check_bool "fresh predicate is not tabled" false (Xsb.Pred.tabled p);
        ignore (Xsb.Database.insert_clause db p ~head:(tm "p" [ i 3 ]) ~body:(Xsb.Term.Atom "true"));
        (* a stale Complete table would still answer {1,2} here *)
        check_int "only the fresh clause answers" 1 (count ()));
    t "remove_pred clears the HiLog registration" `Quick (fun () ->
        let db = Xsb.Database.create () in
        Xsb.Database.declare_hilog db "h";
        ignore (Xsb.Database.add_clause db (tm "h" [ i 1 ]));
        (* hilog clauses live under the apply/2 encoding *)
        check_bool "encoded under apply/2" true (Xsb.Database.find db "apply" 2 <> None);
        Xsb.Database.remove_pred db "apply" 2;
        Xsb.Database.remove_pred db "h" 1;
        check_bool "registration dropped" false (Xsb.Database.is_hilog db "h");
        let pred, _ = Xsb.Database.add_clause db (tm "h" [ i 1 ]) in
        check_string "re-asserted clause is first-order again" "h" (Xsb.Pred.name pred));
  ]

(* --- client retry --- *)

let retry_cases =
  [
    t "with_retry backs off exponentially up to the cap" `Quick (fun () ->
        let sleeps = ref [] in
        let r =
          Client.retry ~retries:3 ~backoff_ms:100.0 ~max_backoff_ms:250.0 ~rand:(fun hi -> hi)
            ~sleep:(fun s -> sleeps := s :: !sleeps)
            ()
        in
        let attempts = ref 0 in
        let result =
          Client.with_retry r (fun () ->
              incr attempts;
              `Retry "still down")
        in
        check_bool "exhausted" true (result = Error "still down");
        check_int "initial + 3 retries" 4 !attempts;
        check_bool "100ms, 200ms, capped at 250ms" true
          (List.rev !sleeps = [ 100.0 /. 1000.0; 200.0 /. 1000.0; 250.0 /. 1000.0 ]));
    t "with_retry stops at the first success" `Quick (fun () ->
        let attempts = ref 0 in
        let r = Client.retry ~retries:5 ~backoff_ms:1.0 ~rand:(fun hi -> hi) ~sleep:(fun _ -> ()) () in
        let result =
          Client.with_retry r (fun () ->
              incr attempts;
              if !attempts < 3 then `Retry "again" else `Ok !attempts)
        in
        check_bool "succeeded on the third attempt" true (result = Ok 3));
    t "zero retries means exactly one attempt and no sleep" `Quick (fun () ->
        let slept = ref false in
        let r = Client.retry ~retries:0 ~sleep:(fun _ -> slept := true) () in
        let attempts = ref 0 in
        let result =
          Client.with_retry r (fun () ->
              incr attempts;
              `Retry "no")
        in
        check_bool "failed" true (result = Error "no");
        check_int "one attempt" 1 !attempts;
        check_bool "no sleep" false !slept);
    t "only idempotent ops are retryable" `Quick (fun () ->
        check_bool "ping" true (Client.idempotent Protocol.Ping);
        check_bool "query" true (Client.idempotent Protocol.Query);
        check_bool "statistics" true (Client.idempotent Protocol.Statistics);
        check_bool "assert" false (Client.idempotent Protocol.Assert);
        check_bool "consult" false (Client.idempotent Protocol.Consult);
        check_bool "abolish" false (Client.idempotent Protocol.Abolish);
        check_bool "sync" false (Client.idempotent Protocol.Sync));
    t "connect_with_retry retries ECONNREFUSED with backoff" `Quick (fun () ->
        (* grab a port nothing listens on *)
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let port =
          match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Unix.close fd;
        let sleeps = ref [] in
        let r =
          Client.retry ~retries:2 ~backoff_ms:1.0 ~rand:(fun hi -> hi)
            ~sleep:(fun s -> sleeps := s :: !sleeps)
            ()
        in
        let c = Client.conn ~host:"127.0.0.1" port in
        match Client.call ~policy:r c Protocol.Ping Client.ping with
        | Error _ -> check_int "two backoff sleeps" 2 (List.length !sleeps)
        | Ok _ -> Alcotest.fail "unexpected connect");
    t "default_retry jitter is not the unseeded global generator" `Quick (fun () ->
        let saved = Random.get_state () in
        let jitter = Client.default_retry.rand 1.0 in
        Random.set_state saved;
        check_bool "a generator of its own, seeded from the OS" true (jitter <> Random.float 1.0));
  ]

(* --- the durable server --- *)

let with_server ?(cfg = Server.default_config) f =
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

let durable_cfg dir =
  {
    Server.default_config with
    Server.data_dir = Some dir;
    Server.sync = J.Always;
    Server.compact_bytes = 0;
  }

let server_cases =
  [
    t "durable server: asserted state survives a restart" `Quick (fun () ->
        with_dir (fun dir ->
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    ignore (ok (Client.assert_ c "edge(1,2)"));
                    ignore (ok (Client.assert_ c "edge(2,3)"));
                    ignore (ok (Client.assert_ c "path(X,Y) :- edge(X,Y)"));
                    check_bool "sync reports durable bytes" true
                      (String.length (ok (Client.sync c)) > 0)));
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    check_int "facts recovered" 2
                      (List.length (rows_of (Client.query c "edge(X,Y)")));
                    check_int "rules recovered" 2
                      (List.length (rows_of (Client.query c "path(X,Y)")))))));
    t "durable server: one shared session across connections" `Quick (fun () ->
        with_dir (fun dir ->
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c -> ignore (ok (Client.assert_ c "shared(1)")));
                with_client server (fun c ->
                    check_int "visible on a second connection" 1
                      (List.length (rows_of (Client.query c "shared(X)")))))));
    t "SYNC without --data-dir is BAD_REQUEST" `Quick (fun () ->
        with_server (fun server ->
            with_client server (fun c ->
                match Client.sync c with
                | Error { Client.code = Protocol.Bad_request; _ } -> ()
                | Error { Client.code; _ } ->
                    Alcotest.failf "wrong code %s" (Protocol.err_code_name code)
                | Ok _ -> Alcotest.fail "expected BAD_REQUEST")));
    t "ABOLISH name/arity removes the predicate durably" `Quick (fun () ->
        with_dir (fun dir ->
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    ignore (ok (Client.assert_ c "junk(1)"));
                    ignore (ok (Client.assert_ c "junk(2)"));
                    check_string "removed" "removed" (ok (Client.abolish ~pred:"junk/1" c));
                    ignore (ok (Client.assert_ c "junk(7)"));
                    check_int "only the fresh clause" 1
                      (List.length (rows_of (Client.query c "junk(X)")));
                    match Client.abolish ~pred:"not an indicator" c with
                    | Error { Client.code = Protocol.Bad_request; _ } -> ()
                    | _ -> Alcotest.fail "expected BAD_REQUEST"));
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    check_int "removal recovered too" 1
                      (List.length (rows_of (Client.query c "junk(X)")))))));
    t "a journal write failure degrades the server to read-only" `Quick (fun () ->
        F.reset ();
        with_dir (fun dir ->
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    ignore (ok (Client.assert_ c "edge(1,2)"));
                    F.arm "journal.append.write" F.Fail;
                    (match Client.assert_ c "edge(2,3)" with
                    | Error { Client.code = Protocol.Readonly; _ } -> ()
                    | Error { Client.code; _ } ->
                        Alcotest.failf "wrong code %s" (Protocol.err_code_name code)
                    | Ok _ -> Alcotest.fail "expected READONLY");
                    check_bool "server flagged read-only" true (Server.read_only server <> None);
                    (* mutations keep being refused, reads keep working *)
                    (match Client.assert_ c "edge(3,4)" with
                    | Error { Client.code = Protocol.Readonly; _ } -> ()
                    | _ -> Alcotest.fail "expected READONLY again");
                    check_bool "queries still served" true
                      (List.length (rows_of (Client.query c "edge(X,Y)")) >= 1);
                    match Client.sync c with
                    | Error { Client.code = Protocol.Readonly; _ } -> ()
                    | _ -> Alcotest.fail "SYNC should be refused read-only"));
            F.reset ();
            (* after a restart the acked prefix is intact and writable *)
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    check_int "acked prefix recovered" 1
                      (List.length (rows_of (Client.query c "edge(X,Y)")));
                    ignore (ok (Client.assert_ c "edge(9,9)")))));
        F.reset ());
  ]

(* --- incremental tables on the durable server --- *)

(* one counter out of the STATS text, e.g. [stat text "subgoals"] *)
let stat_of text name =
  let target = name ^ ": " in
  let tlen = String.length target in
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None ->
          let line = String.trim line in
          if String.length line > tlen && String.sub line 0 tlen = target then
            int_of_string_opt (String.sub line tlen (String.length line - tlen))
          else None)
    None
    (String.split_on_char '\n' text)

let stat c name =
  match stat_of (ok (Client.statistics c)) name with
  | Some n -> n
  | None -> Alcotest.failf "no %S line in STATS" name

let reach_src =
  ":- table reach/2 as incremental.\n\
   reach(X,Y) :- edge(X,Y).\n\
   reach(X,Z) :- reach(X,Y), edge(Y,Z)."

let incremental_server_cases =
  [
    t "durable server: tables stay warm across unrelated writes" `Quick (fun () ->
        with_dir (fun dir ->
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    ignore (ok (Client.consult c reach_src));
                    ignore (ok (Client.assert_ c "edge(1,2)"));
                    ignore (ok (Client.assert_ c "edge(2,3)"));
                    check_int "cold query" 2 (List.length (rows_of (Client.query c "reach(1,X)")));
                    let before = stat c "subgoals" in
                    (* a journaled write to an unrelated predicate must
                       not disturb the completed reach tables *)
                    ignore (ok (Client.assert_ c "noise(1)"));
                    check_int "warm query" 2 (List.length (rows_of (Client.query c "reach(1,X)")));
                    (* the warm query reads the completed table directly:
                       no table is created, not even a query table *)
                    check_int "no table was created" before (stat c "subgoals");
                    check_int "no repair needed" 0 (stat c "repairs");
                    (* a write the table depends on is repaired in
                       place, not recomputed *)
                    ignore (ok (Client.assert_ c "edge(3,4)"));
                    check_int "repaired answers" 3
                      (List.length (rows_of (Client.query c "reach(1,X)")));
                    check_int "one repair" 1 (stat c "repairs")))));
    t "durable server: table modes survive a restart" `Quick (fun () ->
        with_dir (fun dir ->
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    ignore
                      (ok
                         (Client.consult c
                            ":- table sp/3 as subsumptive(min).\n\
                             sp(X,Y,C) :- edge(X,Y,C).\n\
                             sp(X,Z,C) :- sp(X,Y,C1), edge(Y,Z,C2), C is C1 + C2."));
                    ignore (ok (Client.assert_ c "edge(a,b,3)"));
                    ignore (ok (Client.assert_ c "edge(a,b,1)"))));
            (* compact_bytes = 0 turns auto-compaction off, so recovery
               replays the journal's Set_table_mode record *)
            with_server ~cfg:(durable_cfg dir) (fun server ->
                with_client server (fun c ->
                    check_int "still folded to the minimum" 1
                      (List.length (rows_of (Client.query c "sp(a,Y,C)")))))));
  ]

(* --- group commit ---

   Concurrent appenders block on a commit barrier while a dedicated
   committer thread issues one fsync per batch; the durability contract
   on return from [append] is the same as [Always]. *)

let group_cfg dir =
  { (J.default_config ~dir) with J.sync = J.Group { window_us = 200; max_batch = 64 } }

let edge_mut k =
  R.Add_clause
    {
      name = "edge";
      arity = 2;
      front = false;
      dynamic = true;
      clause = clause_canon (tm "edge" [ i k; i k ]) (Xsb.Term.Atom "true");
    }

let edge_ids db =
  match Xsb.Database.find db "edge" 2 with
  | None -> []
  | Some pred ->
      List.filter_map
        (fun (c : Xsb.Pred.clause) ->
          match Xsb.Term.deref c.Xsb.Pred.head with
          | Xsb.Term.Struct ("edge", [| a; _ |]) -> (
              match Xsb.Term.deref a with Xsb.Term.Int n -> Some n | _ -> None)
          | _ -> None)
        (Xsb.Pred.clauses pred)

let group_cases =
  [
    t "group commit: concurrent appenders are all durable on return" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (group_cfg dir) db in
            let writers = 8 and per = 8 in
            let threads =
              List.init writers (fun w ->
                  Thread.create
                    (fun () ->
                      for r = 0 to per - 1 do
                        J.append j (edge_mut ((w * per) + r))
                      done)
                    ())
            in
            List.iter Thread.join threads;
            (* every append returned, so every record must be fsynced *)
            check_int "durable == written" (J.written_bytes j) (J.durable_bytes j);
            check_bool "the committer issued batches" true ((J.stats j).J.group_batches >= 1);
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (group_cfg dir) db2 in
            check_int "every record recovered" (writers * per) (edge_count db2);
            J.close j2));
    t "append_batch: one fsync commits the whole transaction" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (group_cfg dir) db in
            let before = (J.stats j).J.fsyncs in
            J.append_batch j (List.init 10 edge_mut);
            (* the batch lands in one write, so the committer covers it
               with exactly one fsync — the amortization group commit
               sells *)
            check_int "one fsync for ten records" (before + 1) (J.stats j).J.fsyncs;
            check_int "durable on return" (J.written_bytes j) (J.durable_bytes j);
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (group_cfg dir) db2 in
            check_int "all ten recovered" 10 (edge_count db2);
            J.close j2));
    t "deferred group hook: enqueue is durable only after the barrier" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (group_cfg dir) db in
            J.attach ~deferred:true j;
            assert_edge db 1 1;
            assert_edge db 2 2;
            J.barrier j;
            check_int "durable after the barrier" (J.written_bytes j) (J.durable_bytes j);
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (group_cfg dir) db2 in
            check_int "both recovered" 2 (edge_count db2);
            J.close j2));
  ]

(* --- the group-commit kill-and-recover property ---

   Concurrent writers append under group commit while every I/O site
   the workload hits is crashed at several of its hit points. A crash
   between the batch write and the batch fsync (or anywhere else) must
   never lose a record whose append acknowledged — and must never
   resurrect a record nobody wrote. Durable-but-unacked records (the
   crash fell between fsync and the ack broadcast) are allowed: the
   contract is acked ⊆ recovered ⊆ attempted. *)

let group_crash_everywhere seed =
  let st = Random.State.make [| seed |] in
  let writers = 4 and per = 4 + Random.State.int st 4 in
  let cfg dir =
    {
      (J.default_config ~dir) with
      J.sync =
        J.Group
          {
            window_us = 50 + Random.State.int st 300;
            max_batch = 1 + Random.State.int st 8;
          };
      compact_bytes = 900;
    }
  in
  (* the server's write path: mutate the database under a lock (the
     deferred hook only enqueues), then block on the commit barrier
     outside it — so batches form across writers *)
  let run_writers db j acked =
    let dbm = Mutex.create () in
    let threads =
      List.init writers (fun w ->
          Thread.create
            (fun () ->
              try
                for r = 0 to per - 1 do
                  let id = (w * per) + r in
                  Mutex.lock dbm;
                  (match assert_edge db id id with
                  | () -> Mutex.unlock dbm
                  | exception e ->
                      Mutex.unlock dbm;
                      raise e);
                  J.barrier j;
                  acked.(id) <- true
                done
              with F.Injected_crash _ | J.Io_error _ -> ())
            ())
    in
    List.iter Thread.join threads
  in
  (* clean run: learn which I/O sites this workload hits *)
  F.reset ();
  with_dir (fun dir ->
      let db = Xsb.Database.create () in
      let j = J.open_ (cfg dir) db in
      J.attach ~deferred:true j;
      run_writers db j (Array.make (writers * per) false);
      J.close j);
  let sites = F.all_hits () in
  F.reset ();
  check_bool "the workload exercises several I/O sites" true (List.length sites >= 3);
  let points hits = List.sort_uniq compare [ 0; hits / 2; hits - 1 ] in
  List.iter
    (fun (site, hits) ->
      List.iter
        (fun action ->
          List.iter
            (fun k ->
              with_dir (fun dir ->
                  F.reset ();
                  F.arm ~after:k site action;
                  let db = Xsb.Database.create () in
                  let j = J.open_ (cfg dir) db in
                  J.attach ~deferred:true j;
                  let acked = Array.make (writers * per) false in
                  run_writers db j acked;
                  F.reset ();
                  let durable = J.durable_bytes j in
                  (try J.close j with _ -> ());
                  (* model the page cache dying with the process: only
                     fsynced bytes survive — unless a rotation already
                     replaced the file with a shorter one *)
                  let jpath = Filename.concat dir "journal.log" in
                  (match Unix.stat jpath with
                  | { Unix.st_size; _ } when durable < st_size ->
                      let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
                      Unix.ftruncate fd durable;
                      Unix.close fd
                  | _ -> ()
                  | exception Unix.Unix_error _ -> ());
                  let db2 = Xsb.Database.create () in
                  let j2 = J.open_ (cfg dir) db2 in
                  J.close j2;
                  let recovered = edge_ids db2 in
                  Array.iteri
                    (fun id was_acked ->
                      if was_acked && not (List.mem id recovered) then
                        Alcotest.failf "seed %d, %s at %s hit %d: acked record %d lost" seed
                          (action_name action) site k id)
                    acked;
                  List.iter
                    (fun id ->
                      if id < 0 || id >= writers * per then
                        Alcotest.failf "seed %d, %s at %s hit %d: phantom record %d" seed
                          (action_name action) site k id)
                    recovered))
            (points hits))
        [ F.Crash; F.Short_write 5 ])
    sites;
  F.reset ()

let group_property_cases =
  List.map
    (fun seed ->
      t
        (Printf.sprintf "group commit never loses an acked record (seed %d)" seed)
        `Quick
        (fun () -> group_crash_everywhere seed))
    property_seeds

(* --- archived generations and point-in-time recovery --- *)

let archive_cases =
  [
    t "keep_generations archives rotations and prunes beyond the window" `Quick (fun () ->
        with_dir (fun dir ->
            let cfg =
              { (J.default_config ~dir) with J.compact_bytes = 0; keep_generations = 2 }
            in
            let db = Xsb.Database.create () in
            let j = J.open_ cfg db in
            J.attach j;
            assert_edge db 1 1;
            J.compact j;
            assert_edge db 2 2;
            J.compact j;
            assert_edge db 3 3;
            J.compact j;
            check_bool "generation advanced" true (J.generation j >= 4L);
            check_bool "gen 3 journal archived" true
              (Sys.file_exists (J.archive_journal_path cfg 3L));
            check_bool "gen 2 journal archived" true
              (Sys.file_exists (J.archive_journal_path cfg 2L));
            check_bool "gen 1 pruned (window is 2)" false
              (Sys.file_exists (J.archive_journal_path cfg 1L));
            J.close j));
    t "recover_at rebuilds an intermediate generation's state" `Quick (fun () ->
        with_dir (fun dir ->
            let cfg =
              { (J.default_config ~dir) with J.compact_bytes = 0; keep_generations = 8 }
            in
            let db = Xsb.Database.create () in
            let j = J.open_ cfg db in
            J.attach j;
            assert_edge db 1 1;
            assert_edge db 2 2;
            J.compact j;
            assert_edge db 3 3;
            assert_edge db 4 4;
            J.compact j;
            assert_edge db 5 5;
            J.close j;
            (* generation 2 = snapshot of gen 1 (edges 1,2) + its records *)
            let db2 = Xsb.Database.create () in
            let n = J.recover_at ~dir ~generation:2L db2 in
            check_int "state as of the end of generation 2" 4 (edge_count db2);
            (* ~upto rewinds within the generation *)
            let db3 = Xsb.Database.create () in
            ignore (J.recover_at ~upto:(n - 1) ~dir ~generation:2L db3);
            check_int "one record earlier" 3 (edge_count db3);
            (* the live (never-rotated) generation is reachable too *)
            let db4 = Xsb.Database.create () in
            ignore (J.recover_at ~dir ~generation:3L db4);
            check_int "live generation" 5 (edge_count db4);
            (* a pruned generation is a typed error, not garbage *)
            match J.recover_at ~dir ~generation:9L (Xsb.Database.create ()) with
            | exception J.Recovery_error _ -> ()
            | _ -> Alcotest.fail "expected Recovery_error for a missing generation"));
  ]

(* --- failover fencing epochs (DESIGN.md §14) --- *)

let epoch_cases =
  [
    t "epoch: stamped at 1, bumped at promotion, durable across restart" `Quick (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            Alcotest.(check int64) "fresh journals start at epoch 1" 1L (J.epoch j);
            assert_edge db 1 1;
            assert_edge db 2 2;
            Alcotest.(check int64) "bump returns the new epoch" 2L (J.bump_epoch j);
            Alcotest.(check int64) "live epoch moved" 2L (J.epoch j);
            (* the retired epoch's fence is where its authority ended:
               exactly the synced position at the bump *)
            (match J.epoch_fence j 1L with
            | Some (gen, off) ->
                let dgen, doff = J.durable_position j in
                Alcotest.(check int64) "fence generation" dgen gen;
                check_int "fence offset" doff off
            | None -> Alcotest.fail "no fence recorded for the retired epoch");
            check_bool "no fence for a live epoch" true (J.epoch_fence j 2L = None);
            (* records appended under the new epoch replay fine, and the
               epoch survives a close/reopen *)
            assert_edge db 3 3;
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            Alcotest.(check int64) "epoch durable across restart" 2L (J.epoch j2);
            check_int "records across the bump all replayed" 3 (edge_count db2);
            (match J.epoch_fence j2 1L with
            | Some _ -> ()
            | None -> Alcotest.fail "fence lost across restart");
            (* the epoch survives a compaction (snapshot + new live
               journal) too *)
            J.attach j2;
            J.compact j2;
            J.close j2;
            let db3 = Xsb.Database.create () in
            let j3 = J.open_ (J.default_config ~dir) db3 in
            Alcotest.(check int64) "epoch survives compaction" 2L (J.epoch j3);
            check_int "state intact after compaction" 3 (edge_count db3);
            J.close j3));
  ]

(* --- replayed retracts pick the same clause order --- *)

let retract_replay_cases =
  [
    t "recovering asserta/assertz, duplicates and retracts gives the live clause order" `Quick
      (fun () ->
        with_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = J.open_ (J.default_config ~dir) db in
            J.attach j;
            let p = Xsb.Database.set_dynamic db "p" 2 in
            let a s = Xsb.Term.Atom s in
            let add ?(front = false) ?(body = a "true") x y =
              ignore (Xsb.Database.insert_clause db ~front p ~head:(tm "p" [ x; y ]) ~body)
            in
            add (i 1) (a "a");
            add ~front:true (i 0) (a "b");
            add (i 1) (a "a");
            add (Xsb.Term.fresh_var ()) (a "c");
            add ~front:true (i 1) (a "a");
            add (i 1) (a "a") ~body:(a "q");
            add (i 2) (a "d");
            add (i 1) (a "a");
            add ~front:true (Xsb.Term.fresh_var ()) (a "c");
            (* retract/1 takes the first live copy of a duplicated
               clause, which is also the copy replay picks *)
            let retract ?(body = a "true") x y =
              let want = clause_canon (tm "p" [ x; y ]) body in
              match
                List.find_opt
                  (fun (c : Xsb.Pred.clause) ->
                    Xsb.Canon.equal want (clause_canon c.Xsb.Pred.head c.Xsb.Pred.body))
                  (Xsb.Pred.clauses p)
              with
              | Some c -> Xsb.Database.retract_clause db p c
              | None -> Alcotest.fail "no clause to retract"
            in
            retract (i 1) (a "a");
            retract (Xsb.Term.fresh_var ()) (a "c");
            retract (i 1) (a "a") ~body:(a "q");
            retract (i 1) (a "a");
            add (i 1) (a "a");
            add ~front:true (i 1) (a "a");
            let shown db =
              match Xsb.Database.find db "p" 2 with
              | None -> []
              | Some p ->
                  List.map
                    (fun (c : Xsb.Pred.clause) ->
                      Fmt.str "%a" Xsb.Canon.pp (clause_canon c.Xsb.Pred.head c.Xsb.Pred.body))
                    (Xsb.Pred.clauses p)
            in
            check_int "live clauses" 7 (Xsb.Pred.clause_count p);
            check_int "p(1,a) copies left" 4
              (List.length (List.filter (fun l -> l = ":-(p(1,a),true)") (shown db)));
            J.close j;
            let db2 = Xsb.Database.create () in
            let j2 = J.open_ (J.default_config ~dir) db2 in
            Alcotest.(check (list string)) "recovered = live" (shown db) (shown db2);
            J.close j2));
  ]

(* --- an index built on demand is derived state --- *)

let demand_index_cases =
  [
    t "an index built on demand is not declared, journaled, snapshotted or saved" `Quick
      (fun () ->
        (* the same program and writes twice; in the second run a call
           bound only on par/2's second argument builds an index on it *)
        let program =
          ":- dynamic par/2.\n"
          ^ String.concat "" (List.init 12 (fun k -> Printf.sprintf "par(%d,%d).\n" k (k / 2)))
        in
        let slurp path = In_channel.with_open_bin path In_channel.input_all in
        let run ~probe dir =
          let s = Xsb.Session.create () in
          let db = Xsb.Session.db s in
          let j = J.open_ { (J.default_config ~dir) with J.sync = J.Never } db in
          J.attach j;
          Xsb.Session.consult s program;
          if probe then check_int "par(X,3)" 2 (Xsb.Session.count s "par(X,3)");
          ignore (Xsb.Session.query s "assertz(par(20,3)), asserta(par(21,3)), retract(par(7,3))");
          let par = Option.get (Xsb.Database.find db "par" 2) in
          check_bool "index_spec reports only the declared index" true
            (Xsb.Pred.index_spec par = Xsb.Pred.Fields [ [ 1 ] ]);
          Alcotest.(check (list (list int)))
            "hash indexes in use"
            (if probe then [ [ 1 ]; [ 2 ] ] else [ [ 1 ] ])
            (Xsb.Pred.hash_index_fields par);
          let journal = slurp (Filename.concat dir "journal.log") in
          J.compact j;
          let snapshot = slurp (Filename.concat dir "snapshot.bin") in
          let image = image_bytes db in
          J.close j;
          let db2 = Xsb.Database.create () in
          let j2 = J.open_ (J.default_config ~dir) db2 in
          check_string "recovered = live" (fingerprint db) (fingerprint db2);
          J.close j2;
          (journal, snapshot, image)
        in
        with_dir (fun plain ->
            with_dir (fun probed ->
                let journal, snapshot, image = run ~probe:false plain in
                let journal', snapshot', image' = run ~probe:true probed in
                check_bool "journal bytes identical" true (String.equal journal journal');
                check_bool "snapshot bytes identical" true (String.equal snapshot snapshot');
                check_bool "object image bytes identical" true (String.equal image image'))));
  ]

(* --- one record format: object images and snapshots are record streams --- *)

let mode_of db name arity =
  match Xsb.Database.find db name arity with
  | Some p -> Xsb.Pred.table_mode_to_string (Xsb.Pred.table_mode p)
  | None -> "missing"

let hilog_program = ":- hilog h.\nh.\nh(1).\n"

let record_cases =
  [
    t "an object image keeps subsumptive(min) and incremental table modes" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s
          ":- table p/2 as subsumptive(min).\n\
           p(X,C) :- e(X,C).\n\
           :- table q/1 as incremental.\n\
           q(X) :- e(X,_).\n\
           e(a,3). e(a,1).";
        let db = Xsb.Session.db s in
        let image = image_bytes db in
        let s2 = Xsb.Session.create () in
        ignore (Xsb.Obj_file.load_string (Xsb.Session.db s2) image);
        check_string "p/2" (mode_of db "p" 2) (mode_of (Xsb.Session.db s2) "p" 2);
        check_string "q/1" (mode_of db "q" 1) (mode_of (Xsb.Session.db s2) "q" 1);
        check_int "p(a,C) folds to the minimum" 1 (Xsb.Session.count s2 "p(a,C)"));
    t "snapshot recovery keeps a HiLog declaration beside the fact h." `Quick (fun () ->
        with_dir (fun dir ->
            let cfg = { (J.default_config ~dir) with J.sync = J.Never } in
            let s = Xsb.Session.create () in
            let j = J.open_ cfg (Xsb.Session.db s) in
            J.attach j;
            Xsb.Session.consult s hilog_program;
            check_int "h(X) live" 1 (Xsb.Session.count s "h(X)");
            J.compact j;
            J.close j;
            let s2 = Xsb.Session.create () in
            J.close (J.open_ cfg (Xsb.Session.db s2));
            check_string "recovered = live" (fingerprint (Xsb.Session.db s))
              (fingerprint (Xsb.Session.db s2));
            check_int "h(X) after recovery" 1 (Xsb.Session.count s2 "h(X)")));
    t "an object image that fails to decode leaves the database unchanged" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s ":- dynamic e/2.\ne(1,2). e(2,3).\n:- table r/1 as incremental.";
        let db = Xsb.Session.db s in
        let before = fingerprint db in
        (* whole records, then one cut short: the digest is re-forged so
           only the record decoder can refuse it *)
        let other = Xsb.Database.create () in
        ignore (Xsb.Loader.consult_string other "e(7,7). e(8,8). f(x).");
        let image = image_bytes other in
        let payload = String.sub image 28 (String.length image - 28 - 1) in
        let b = Buffer.create 64 in
        Buffer.add_string b (String.sub image 0 8);
        Buffer.add_int32_be b (Int32.of_int (String.length payload));
        Buffer.add_string b (Digest.string payload);
        Buffer.add_string b payload;
        (match Xsb.Obj_file.load_string db (Buffer.contents b) with
        | exception Xsb.Obj_file.Bad_object_file _ -> ()
        | _ -> Alcotest.fail "a cut-short image loaded");
        check_string "database unchanged" before (fingerprint db));
    t "a snapshot of an older format is refused by name" `Quick (fun () ->
        with_dir (fun dir ->
            Unix.mkdir dir 0o755;
            let b = Buffer.create 24 in
            Buffer.add_string b "XSBSNP02";
            Buffer.add_int64_be b 1L;
            Buffer.add_int64_be b 1L;
            Out_channel.with_open_bin (Filename.concat dir "snapshot.bin") (fun oc ->
                Buffer.output_buffer oc b);
            match J.open_ (J.default_config ~dir) (Xsb.Database.create ()) with
            | exception J.Recovery_error { message; _ } ->
                let names sub =
                  let n = String.length sub in
                  let rec at i = i + n <= String.length message && (String.sub message i n = sub || at (i + 1)) in
                  at 0
                in
                check_bool ("names the format: " ^ message) true (names "XSBSNP02")
            | j ->
                J.close j;
                Alcotest.fail "an XSBSNP02 snapshot was accepted"));
    t "an index no hash index can key on is refused; one a record holds survives" `Quick
      (fun () ->
        with_dir (fun dir ->
            let cfg = { (J.default_config ~dir) with J.sync = J.Never } in
            let s = Xsb.Session.create () in
            let db = Xsb.Session.db s in
            let j = J.open_ cfg db in
            J.attach j;
            List.iter
              (fun directive ->
                match Xsb.Session.consult s directive with
                | exception Xsb.Loader.Load_error _ -> ()
                | () -> Alcotest.failf "accepted %s" directive)
              [ ":- index(p/2,[1+2+3+4])."; ":- index(q/4,[1+2+3+4])."; ":- index(r/2, 3)." ];
            check_string "nothing declared" "" (pred_fingerprint db);
            (* earlier versions accepted both directives, so a journal
               may hold their records *)
            Xsb.Session.consult s "q(a,b,c,d). q(a,b,c,e).";
            Xsb.Database.set_index db "p" 2 (Xsb.Pred.Fields [ [ 1; 2; 3; 4 ] ]);
            Xsb.Database.set_index db "q" 4 (Xsb.Pred.Fields [ [ 1; 2; 3; 4 ]; [ 4 ] ]);
            check_int "q(X,Y,Z,e)" 1 (Xsb.Session.count s "q(X,Y,Z,e)");
            let live = fingerprint db in
            let image = image_bytes db in
            J.close j;
            let replayed = Xsb.Database.create () in
            let j2 = J.open_ cfg replayed in
            check_string "journal replay" live (fingerprint replayed);
            J.compact j2;
            J.close j2;
            let recovered = Xsb.Session.create () in
            J.close (J.open_ cfg (Xsb.Session.db recovered));
            check_string "snapshot recovery" live (fingerprint (Xsb.Session.db recovered));
            check_int "q(X,Y,Z,e) after recovery" 1 (Xsb.Session.count recovered "q(X,Y,Z,e)");
            let loaded = Xsb.Database.create () in
            ignore (Xsb.Obj_file.load_string loaded image);
            check_string "object image" (pred_fingerprint db) (pred_fingerprint loaded)));
    t "the journal bytes of a fixed history do not change" `Quick (fun () ->
        (* the history of the demand-index test below; the digest is the
           one the journal format has had since XSBJNL02 *)
        with_dir (fun dir ->
            let s = Xsb.Session.create () in
            let j = J.open_ { (J.default_config ~dir) with J.sync = J.Never } (Xsb.Session.db s) in
            J.attach j;
            Xsb.Session.consult s
              (":- dynamic par/2.\n"
              ^ String.concat "" (List.init 12 (fun k -> Printf.sprintf "par(%d,%d).\n" k (k / 2))));
            ignore (Xsb.Session.count s "par(X,3)");
            ignore
              (Xsb.Session.query s "assertz(par(20,3)), asserta(par(21,3)), retract(par(7,3))");
            J.close j;
            let bytes = In_channel.with_open_bin (Filename.concat dir "journal.log") In_channel.input_all in
            check_int "length" 1122 (String.length bytes);
            check_string "md5" "6f34d9dd0e0dd04a4b8d2880c01fb0d0" (Digest.to_hex (Digest.string bytes))));
  ]

let suite =
  codec_cases @ lifecycle_cases @ failpoint_cases @ property_cases @ group_cases
  @ group_property_cases @ archive_cases @ remove_pred_cases @ retry_cases @ server_cases
  @ incremental_server_cases @ epoch_cases @ retract_replay_cases @ demand_index_cases @ record_cases
