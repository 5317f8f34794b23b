(* Seeded inputs for the serving benchmark: program text, setup warm-up
   goals and per-connection request streams, plus the oracles that give
   each query's expected row count. Everything is a pure function of
   (workload, seed); the server only ever receives the generated text. *)

type workload = Cold_mix | Warm_read | Read_write | Replicated_write

let workloads = [ Cold_mix; Warm_read; Read_write; Replicated_write ]

let name = function
  | Cold_mix -> "cold-mix"
  | Warm_read -> "warm-read"
  | Read_write -> "read-write"
  | Replicated_write -> "replicated-write"

let of_name s = List.find_opt (fun w -> name w = s) workloads

type request =
  | Query of { cls : string; goal : string; expect : int }
      (** [cls] names the query family (tc, sg, win, app, reach) *)
  | Assert of { clause : string; related : bool }
      (** [related]: the clause feeds a table a reader holds *)
  | Abolish

let op_name = function Query _ -> "QUERY" | Assert _ -> "ASSERT" | Abolish -> "ABOLISH"

(* How a connection paces itself. A closed loop sends its next op when
   the previous one completes; an open loop sends on a fixed schedule
   whatever the server does, so a stall shows as lateness. *)
type pacing = Closed | Open of float  (** ops per second *)

type conn = {
  pacing : pacing;
  next : unit -> request list;
      (** the next op: one request, or ABOLISH then QUERY on cold-mix *)
}

type inputs = {
  workload : workload;
  program : string;  (** consulted once per session at setup *)
  warm : request list;  (** run once at setup, split over the connections *)
  conns : conn array;
  foreground : string;  (** the op the end-to-end latency metrics time *)
  fact_base : int;  (** fact/2 clauses in [program] *)
  base_edges : string list;  (** edge/2 clauses in [program], as ASSERT would send them *)
}

(* --- oracles --- *)

(* nodes reachable from [s] by a path of at least one edge *)
let reach_count ~nodes edges s =
  let succ = Array.make (nodes + 1) [] in
  List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) edges;
  let seen = Array.make (nodes + 1) false in
  let todo = Stack.create () in
  Stack.push s todo;
  while not (Stack.is_empty todo) do
    List.iter
      (fun y ->
        if not seen.(y) then begin
          seen.(y) <- true;
          Stack.push y todo
        end)
      succ.(Stack.pop todo)
  done;
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

(* sg(S,Y) answers: every node at S's depth, none for the root *)
let same_depth_count par s =
  let parent = Hashtbl.create 64 in
  List.iter (fun (c, p) -> Hashtbl.replace parent c p) par;
  let rec depth x = match Hashtbl.find_opt parent x with None -> 0 | Some p -> 1 + depth p in
  let nodes = List.sort_uniq compare (List.concat_map (fun (c, p) -> [ c; p ]) par) in
  let d = depth s in
  if d = 0 then 0 else List.length (List.filter (fun x -> depth x = d) nodes)

(* win(X) :- move(X,Y), tnot(win(Y)) on a finite game tree *)
let win moves s =
  let succ = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.add succ a b) moves;
  let rec w x = List.exists (fun y -> not (w y)) (Hashtbl.find_all succ x) in
  w s

(* app(X,Y,L) with L ground of length n splits L n + 1 ways *)
let app_rows n = n + 1

(* --- generators --- *)

let shuffle st n =
  let a = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* a Hamiltonian cycle through a seeded permutation, so every node
   reaches every node, plus [extra] distinct random edges *)
let cycle_graph st ~nodes ~extra =
  let perm = shuffle st nodes in
  let seen = Hashtbl.create (2 * (nodes + extra)) in
  let edges = ref [] in
  let add a b =
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      edges := (a, b) :: !edges;
      true
    end
    else false
  in
  for i = 0 to nodes - 1 do
    ignore (add perm.(i) perm.((i + 1) mod nodes))
  done;
  let added = ref 0 in
  while !added < extra do
    if add (1 + Random.State.int st nodes) (1 + Random.State.int st nodes) then incr added
  done;
  List.rev !edges

(* heap-numbered complete binary tree of [height] levels, relabelled by
   a seeded permutation: (parent, child) pairs and the label map *)
let binary_tree st height =
  let n = (1 lsl height) - 1 in
  let label = shuffle st n in
  let lab i = label.(i - 1) in
  let pairs = List.concat (List.init (n / 2) (fun k -> let i = k + 1 in [ (lab i, lab (2 * i)); (lab i, lab ((2 * i) + 1)) ])) in
  (pairs, lab)

let facts name pairs =
  String.concat "" (List.map (fun (a, b) -> Printf.sprintf "%s(%d,%d).\n" name a b) pairs)

let tc_rules = ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n"

let reach_rules =
  ":- table reach/2 as incremental.\n\
   :- dynamic edge/2.\n\
   :- dynamic fact/2.\n\
   reach(X,Y) :- edge(X,Y).\n\
   reach(X,Z) :- reach(X,Y), edge(Y,Z).\n"

let sg_rules =
  ":- table sg/2.\n\
   sg(X,Y) :- sib(X,Y).\n\
   sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).\n\
   sib(X,Y) :- par(X,P), par(Y,P).\n"

let win_rules = ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\n"
let app_rules = ":- table app/3.\napp([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).\n"

let tc_nodes = 300
let sg_height = 7
let win_height = 9
let app_len = 16
let rw_sources = 16
let write_rate = 200.0

(* one independent stream per (workload, seed, purpose), so adding a
   connection never shifts another's sequence *)
let state w seed k = Random.State.make [| seed; Hashtbl.hash (name w); k |]

(* the oracle's row count for sources 1..[sources], indexed by source *)
let reach_counts edges sources = Array.init (sources + 1) (fun s -> if s = 0 then 0 else reach_count ~nodes:tc_nodes edges s)

let path_query counts s = Query { cls = "tc"; goal = Printf.sprintf "path(%d,X)" s; expect = counts.(s) }

let make w seed =
  let st = state w seed 0 in
  match w with
  | Cold_mix ->
      let edges = cycle_graph st ~nodes:tc_nodes ~extra:600 in
      let counts = reach_counts edges tc_nodes in
      let sg_tree, sg_lab = binary_tree st sg_height in
      let par = List.map (fun (p, c) -> (c, p)) sg_tree in
      let leaves = 1 lsl (sg_height - 1) in
      let sg_rows = same_depth_count par (sg_lab leaves) in
      let moves, win_lab = binary_tree st win_height in
      let win_rows = Array.init 16 (fun i -> if i > 0 && win moves (win_lab i) then 1 else 0) in
      let program =
        String.concat ""
          [ tc_rules; facts "edge" edges; sg_rules; facts "par" par; win_rules; facts "move" moves; app_rules ]
      in
      let conn k =
        let st = state w seed (k + 1) in
        let next () =
          let r = Random.State.int st 100 in
          let q =
            if r < 50 then path_query counts (1 + Random.State.int st tc_nodes)
            else if r < 70 then
              let s = sg_lab (leaves + Random.State.int st leaves) in
              Query { cls = "sg"; goal = Printf.sprintf "sg(%d,Y)" s; expect = sg_rows }
            else if r < 90 then
              (* the top four levels: subtrees of 63 to 511 nodes *)
              let i = 1 + Random.State.int st 15 in
              Query { cls = "win"; goal = Printf.sprintf "win(%d)" (win_lab i); expect = win_rows.(i) }
            else
              let l = List.init app_len (fun _ -> string_of_int (Random.State.int st 1000)) in
              Query
                { cls = "app"; goal = Printf.sprintf "app(X,Y,[%s])" (String.concat "," l); expect = app_rows app_len }
          in
          [ Abolish; q ]
        in
        { pacing = Closed; next }
      in
      (* One connection: the server's workers share the OCaml runtime
         lock, so a second connection adds no throughput on this
         workload, only lock hand-offs that quadruple its p99 and
         dominate its run-to-run spread. *)
      { workload = w; program; warm = []; conns = [| conn 0 |]; foreground = "QUERY"; fact_base = 0; base_edges = [] }
  | Warm_read ->
      let edges = cycle_graph st ~nodes:tc_nodes ~extra:600 in
      let counts = reach_counts edges tc_nodes in
      let conn k =
        let st = state w seed (k + 1) in
        { pacing = Closed; next = (fun () -> [ path_query counts (1 + Random.State.int st tc_nodes) ]) }
      in
      {
        workload = w;
        program = tc_rules ^ facts "edge" edges;
        warm = List.init tc_nodes (fun i -> path_query counts (i + 1));
        conns = [| conn 0; conn 1 |];
        foreground = "QUERY";
        fact_base = 0;
        base_edges = [];
      }
  | Read_write ->
      let edges = cycle_graph st ~nodes:tc_nodes ~extra:tc_nodes in
      (* the cycle makes every count [tc_nodes]; added edges join
         existing nodes, so the count cannot move while writes land *)
      let counts = reach_counts edges rw_sources in
      let reach s = Query { cls = "reach"; goal = Printf.sprintf "reach(%d,X)" s; expect = counts.(s) } in
      let rst = state w seed 1 in
      let reader = { pacing = Closed; next = (fun () -> [ reach (1 + Random.State.int rst rw_sources) ]) } in
      let wst = state w seed 2 in
      let k = ref 0 in
      (* One write in a hundred adds an edge, staling every reader table.
         That keeps repaired queries under 1 % of reads, so p99 is the
         ordinary read tail; at one in ten it fell inside the repairs
         and moved 25 to 35 % between runs. *)
      let writer =
        {
          pacing = Open write_rate;
          next =
            (fun () ->
              if Random.State.int wst 100 = 0 then
                let a = 1 + Random.State.int wst tc_nodes and b = 1 + Random.State.int wst tc_nodes in
                [ Assert { clause = Printf.sprintf "edge(%d,%d)" a b; related = true } ]
              else begin
                incr k;
                [ Assert { clause = Printf.sprintf "fact(%d,%d)" !k (Random.State.int wst 1_000_000); related = false } ]
              end);
        }
      in
      {
        workload = w;
        program = reach_rules ^ facts "edge" edges;
        warm = List.init rw_sources (fun i -> reach (i + 1));
        conns = [| reader; writer |];
        foreground = "QUERY";
        fact_base = 0;
        base_edges = List.map (fun (a, b) -> Printf.sprintf "edge(%d,%d)" a b) edges;
      }
  | Replicated_write ->
      let base = 100 in
      let initial = List.init base (fun i -> (i + 1, Random.State.int st 1_000_000)) in
      let conn c =
        let st = state w seed (c + 1) in
        let k = ref 0 in
        {
          pacing = Closed;
          next =
            (fun () ->
              incr k;
              (* keys never collide with the base facts or the other connection *)
              let key = ((c + 1) * 100_000_000) + !k in
              [ Assert { clause = Printf.sprintf "fact(%d,%d)" key (Random.State.int st 1_000_000); related = false } ]);
        }
      in
      {
        workload = w;
        program = ":- dynamic fact/2.\n" ^ facts "fact" initial;
        warm = [];
        conns = [| conn 0; conn 1 |];
        foreground = "ASSERT";
        fact_base = base;
        base_edges = [];
      }

let is_foreground inputs r = op_name r = inputs.foreground
