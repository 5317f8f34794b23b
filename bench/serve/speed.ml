(* The host's speed, timed with a fixed reference task of the benchmark's
   own.

   The benchmark runs on a few virtual CPUs of a shared machine. What
   the machine's other tenants run changes how fast this CPU executes
   memory-heavy code, by up to 60 % for tens of seconds at a time, while
   a loop that works in registers hardly moves. The server's work (term
   building, hashing, table inserts, garbage collection) is of the first
   kind, and so is the reference task: a breadth-first search over a
   fixed 300-node graph that builds its adjacency lists afresh on every
   run. The load loop runs it after every reply on its first connection
   and times it in its own thread's CPU time, which leaves out the time
   the thread waited while the server ran. A time measured in a slice of
   the window is reported at reference speed: multiplied by [scale], the
   task's nominal time over its median time in that slice. The median,
   not the mean: about one run in twenty takes a minor collection or a
   page fault of the client's own and runs 2 to 50 times longer.

   The task belongs to the benchmark and does not change when the
   program does, so a change to the program moves the scaled times as
   much as it moves the measured ones. *)

external thread_cpu_s : unit -> (float[@unboxed]) = "bench_thread_cpu_s_byte" "bench_thread_cpu_s" [@@noalloc]

(* the task's median time on the 2-vCPU host the bounds were set on,
   over about 300,000 runs *)
let nominal_s = 20e-6
let nodes = 300

(* a Hamiltonian cycle through a seeded permutation, so every node
   reaches every node, plus 600 seeded edges *)
let edges =
  let st = Random.State.make [| 11 |] in
  let perm = Array.init nodes (fun i -> i + 1) in
  for i = nodes - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  List.init nodes (fun i -> (perm.(i), perm.((i + 1) mod nodes)))
  @ List.init (2 * nodes) (fun _ -> (1 + Random.State.int st nodes, 1 + Random.State.int st nodes))

(* the reference task: how many nodes [s] reaches *)
let reach s =
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

(* the thread CPU time of each run of the task; one per load loop, so
   it needs no lock *)
type meter = { mutable times : float list }

let meter () = { times = [] }
let runs m = List.length m.times

(* The task runs twice and only the second run is timed: the first
   brings the task's data back into the cache, so the timed run does
   not depend on how much of the cache the server's work displaced. *)
let run m =
  let s = 1 + (runs m mod nodes) in
  let warm = reach s in
  let t0 = thread_cpu_s () in
  let timed = reach s in
  m.times <- (thread_cpu_s () -. t0) :: m.times;
  if warm <> nodes || timed <> nodes then failwith "Speed.reach: the cycle reaches every node"

(* [n] runs back to back, to time the host around a setup *)
let probe n =
  let m = meter () in
  for _ = 1 to n do
    run m
  done;
  m

let median ms = Stats.median (Array.of_list (List.concat_map (fun m -> m.times) ms))

(* what a time measured while [ms] ran is multiplied by to give the
   time at reference speed: below 1 when the host ran slower *)
let scale ms = if List.for_all (fun m -> m.times = []) ms then invalid_arg "Speed.scale: no runs" else nominal_s /. median ms
