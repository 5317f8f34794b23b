(* The traced replay: the same seeded requests, single-threaded and
   in-process, through the public functions the server calls for each
   op, in the server's order, with a span around every call. Spans and
   engine counters are taken only here, in the benchmark's own code.

   Per request: protocol.decode (Protocol.read_request on the encoded
   frame), parse.goal (Parser.term_of_string with the database's
   operators), then by op
     QUERY   slg.eval (Engine.run_bounded), session.render
             (Session.pp_solution, all rows), protocol.encode (all frames)
     ASSERT  db.assert (set_dynamic + Database.add_clause, the journal
             hook enqueueing), journal.barrier, repl.ack_wait
             (Primary.wait_synced), protocol.encode
     ABOLISH slg.abolish (Engine.reset_tables), protocol.encode *)

open Xsb
module P = Xsb_server.Protocol

type req = {
  id : int;
  op : string;
  cls : string;
  fg : bool;
  stale : bool;  (** the first query after a write its tables read *)
  mutable rows : int;
  mutable steps : int;
  mutable subgoals : int;
  mutable answers : int;
  mutable dups : int;
  mutable probes : int;
  mutable candidates : int;
  mutable repairs : int;
  mutable invalidations : int;
}

let counters s =
  let st = Session.stats s in
  Machine.
    [|
      st.st_steps;
      st.st_subgoals;
      st.st_answers;
      st.st_dup_answers;
      st.st_answer_probes;
      st.st_answer_candidates;
      st.st_repairs;
      st.st_invalidations;
    |]

let charge r before after =
  let d i = after.(i) - before.(i) in
  r.steps <- r.steps + d 0;
  r.subgoals <- r.subgoals + d 1;
  r.answers <- r.answers + d 2;
  r.dups <- r.dups + d 3;
  r.probes <- r.probes + d 4;
  r.candidates <- r.candidates + d 5;
  r.repairs <- r.repairs + d 6;
  r.invalidations <- r.invalidations + d 7

(* The op sequence: [ops] ops drawn from the connections' streams in a
   fixed interleave. On read-write every third op is the writer's, near
   the reader-to-writer ratio the live run sees. *)
let sequence (inputs : Gen.inputs) ops =
  let n = Array.length inputs.conns in
  let owner k = match inputs.workload with Gen.Read_write -> if k mod 3 = 2 then 1 else 0 | _ -> k mod n in
  List.concat (List.init ops (fun k -> inputs.conns.(owner k).Gen.next ()))

type result = {
  spans : Span.span list;
  reqs : req list;  (** the measured requests, setup excluded *)
  table_bytes : float list;  (** table space before each ABOLISH, or at the end *)
  consult_ms : float;
  warm_ms : float option;
}

let run ~dir ~ops (inputs : Gen.inputs) =
  Serve.mkdir_p dir;
  let tr = Span.create () in
  let cold = inputs.workload = Gen.Cold_mix in
  let replicated = inputs.workload = Gen.Replicated_write in
  (* one session, as the server has: the durable one is shared, and
     cold-mix runs a single connection *)
  let s = Session.create () in
  let eng = Session.engine s and db = Session.db s in
  let journal =
    if cold then None
    else
      let cfg =
        {
          (Journal.default_config ~dir:(Filename.concat dir "primary")) with
          Journal.sync = Journal.default_group;
          keep_generations = (if replicated then 1 else 0);
        }
      in
      let j = Journal.open_ cfg db in
      Journal.attach ~deferred:true j;
      Some j
  in
  (* an in-process standby over the real replication protocol *)
  let repl =
    match journal with
    | Some j when replicated ->
        let primary = Xsb_repl.Repl.Primary.start ~port:0 ~journal:j () in
        let sdir = Filename.concat dir "standby" in
        Serve.mkdir_p sdir;
        let sdb = Database.create () in
        let standby =
          Xsb_repl.Repl.Standby.start ~primary_host:"127.0.0.1" ~primary_port:(Xsb_repl.Repl.Primary.port primary)
            ~dir:sdir ~generation:1L ~offset:Journal.header_len ~epoch:(Journal.epoch j) ~keep_generations:0
            ~apply:(Journal.apply_mutation sdb) ()
        in
        let deadline = Serve.now () +. 10.0 in
        while Xsb_repl.Repl.Primary.standbys primary < 1 && Serve.now () < deadline do
          Thread.delay 0.002
        done;
        Some (primary, standby)
    | _ -> None
  in
  let commit ~parent ~req =
    Option.iter (fun j -> Span.record tr ~parent ~req "journal.barrier" (fun _ -> Journal.barrier j)) journal;
    match (journal, repl) with
    | Some j, Some (primary, _) ->
        Span.record tr ~parent ~req "repl.ack_wait" (fun _ ->
            let gen, off = Journal.durable_position j in
            ignore (Xsb_repl.Repl.Primary.wait_synced primary ~k:1 ~gen ~off ~timeout_s:1.0))
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun (p, s) ->
          Xsb_repl.Repl.Standby.stop s;
          Xsb_repl.Repl.Primary.stop p)
        repl;
      Option.iter Journal.close journal;
      Serve.rm_rf dir)
  @@ fun () ->
  let consult_start = Span.since tr in
  Span.record tr ~parent:0 ~req:0 "setup.consult" (fun id ->
      ignore (Engine.consult_string_count eng inputs.program);
      commit ~parent:id ~req:0);
  let consult_ms = float_of_int (Span.since tr - consult_start) /. 1e6 in
  let seq = sequence inputs ops in
  let warm = inputs.warm in
  (* every request goes through an encoded frame, decoded back timed *)
  let frames_path = Filename.concat dir "frames.bin" and replies_path = Filename.concat dir "replies.bin" in
  let oc = open_out_bin frames_path in
  List.iter
    (fun r ->
      let op, payload =
        match r with
        | Gen.Query { goal; _ } -> (P.Query, goal)
        | Gen.Assert { clause; _ } -> (P.Assert, clause)
        | Gen.Abolish -> (P.Abolish, "")
      in
      P.write_request oc (P.request op payload))
    (warm @ seq);
  close_out oc;
  let frames = open_in_bin frames_path and replies = open_out_bin replies_path in
  Fun.protect ~finally:(fun () ->
      close_in_noerr frames;
      close_out_noerr replies)
  @@ fun () ->
  let table_bytes = ref [] in
  let next_id = ref 0 in
  let stale = ref false in
  let handle ~parent (r : Gen.request) =
    incr next_id;
    let is_query = match r with Gen.Query _ -> true | _ -> false in
    let info =
      {
        id = !next_id;
        op = Gen.op_name r;
        cls = Serve.cls_of r;
        fg = Gen.is_foreground inputs r;
        stale = is_query && !stale;
        rows = 0;
        steps = 0;
        subgoals = 0;
        answers = 0;
        dups = 0;
        probes = 0;
        candidates = 0;
        repairs = 0;
        invalidations = 0;
      }
    in
    (match r with
    | Gen.Query _ -> stale := false
    | Gen.Assert { related = true; _ } -> stale := true
    | _ -> ());
    let req = info.id in
    Span.record tr ~parent ~req "request" @@ fun rid ->
    let stage name f = Span.record tr ~parent:rid ~req name (fun _ -> f ()) in
    let encode frames = stage "protocol.encode" (fun () -> List.iter (P.write_reply replies) frames) in
    seek_out replies 0;
    let frame = stage "protocol.decode" (fun () -> P.read_request frames) in
    let parse () = stage "parse.goal" (fun () -> Parser.term_of_string ~ops:(Database.ops db) frame.P.payload) in
    (match frame.P.op with
    | P.Query ->
        let goal = parse () in
        let before = counters s in
        let solutions =
          match stage "slg.eval" (fun () -> Engine.run_bounded eng goal) with
          | `Answers l | `Truncated l | `Timeout l -> l
        in
        charge info before (counters s);
        let texts = stage "session.render" (fun () -> List.map (Fmt.str "%a" (Session.pp_solution s)) solutions) in
        info.rows <- List.length texts;
        encode (List.map (fun t -> P.Answer t) texts @ [ P.Done { count = info.rows; more = false } ])
    | P.Assert ->
        let clause = parse () in
        let before = counters s in
        stage "db.assert" (fun () ->
            (match Term.deref (fst (Database.clause_parts clause)) with
            | Term.Atom name -> ignore (Database.set_dynamic db name 0)
            | Term.Struct (name, args) -> ignore (Database.set_dynamic db name (Array.length args))
            | _ -> ());
            ignore (Database.add_clause db clause));
        charge info before (counters s);
        commit ~parent:rid ~req;
        encode [ P.Ok_ "asserted" ]
    | _ (* ABOLISH, the only other op a sequence holds *) ->
        table_bytes := float_of_int (Engine.table_space_bytes eng) :: !table_bytes;
        stage "slg.abolish" (fun () -> Engine.reset_tables eng);
        encode [ P.Ok_ "abolished" ]);
    info
  in
  let warm_ms =
    if warm = [] then None
    else
      let start = Span.since tr in
      Span.record tr ~parent:0 ~req:0 "setup.warm" (fun id -> List.iter (fun r -> ignore (handle ~parent:id r)) warm);
      Some (float_of_int (Span.since tr - start) /. 1e6)
  in
  let reqs = List.map (handle ~parent:0) seq in
  if not cold then table_bytes := float_of_int (Engine.table_space_bytes eng) :: !table_bytes;
  { spans = Span.spans tr; reqs; table_bytes = !table_bytes; consult_ms; warm_ms }
