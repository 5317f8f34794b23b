(* The measurement discipline of the experiment harness. Every timed
   quantity is [reps ()] repetitions on the monotonic clock, reported as
   median [q1, q3] with the quartiles of [Bench_serve.Stats], the module
   bench/serve uses. A ratio is the median of per-repetition ratios, and
   the runs it divides are interleaved: each repetition runs every
   variant once, so drift in the machine's speed falls on both sides. *)

let quick = ref false

(* Eleven samples put the quartiles on the third and ninth order
   statistics: back-to-back runs of Table 2 then mostly agree within
   them, where five did not. Three (under [quick]) give the range. *)
let reps () = if !quick then 3 else 11

type spread = { median : float; q1 : float; q3 : float }

let spread samples =
  let q1, median, q3 = Bench_serve.Stats.quartiles samples in
  { median; q1; q3 }

let scale k s = { median = k *. s.median; q1 = k *. s.q1; q3 = k *. s.q3 }

(* [interleave fs]: each repetition calls every [f] once, in order; the
   result is, per [f], its results in repetition order *)
let interleave fs =
  let rounds = List.init (reps ()) (fun _ -> List.map (fun f -> f ()) fs) in
  List.mapi (fun i _ -> List.map (fun round -> List.nth round i) rounds) fs

(* the spread of each named figure over runs that all return the same
   names, in the first run's order *)
let summarize runs =
  List.map
    (fun (name, _) -> (name, spread (Array.of_list (List.map (List.assoc name) runs))))
    (List.hd runs)

(* [sweep run xs]: [run x ()] for every [x], interleaved; each [x] with
   the spreads of its run's figures *)
let sweep run xs = List.map2 (fun x runs -> (x, summarize runs)) xs (interleave (List.map run xs))

(* One sample of [f] is the mean time of a batch of calls lasting at
   least [min_batch] seconds, sized from one warm-up call: a single call
   of a sub-millisecond query is below the clock's useful resolution.
   Each batch starts on a collected heap, so no sample pays for the
   garbage of the variant timed before it. *)
let min_batch = 0.02

let batch_timer f =
  let t0 = Xsb.Mclock.now () in
  ignore (f ());
  let once = Xsb.Mclock.now () -. t0 in
  let k = max 1 (min 100_000 (int_of_float (Float.ceil (min_batch /. Float.max once 1e-7)))) in
  fun () ->
    Gc.full_major ();
    let t0 = Xsb.Mclock.now () in
    for _ = 1 to k do
      ignore (f ())
    done;
    (Xsb.Mclock.now () -. t0) /. float_of_int k

(* seconds per call of each [f], sampled interleaved *)
let times fs = List.map Array.of_list (interleave (List.map batch_timer fs))
let ratio a b = spread (Array.map2 ( /. ) a b)

(* "median [q1, q3]" with about three significant digits; a figure
   that did not vary (a count) is shown alone *)
let show s =
  let m = Float.abs s.median in
  let integral = List.for_all Float.is_integer [ s.median; s.q1; s.q3 ] in
  let d = if m >= 100. || integral then 0 else if m >= 10. then 1 else if m >= 1. then 2 else 3 in
  if s.q1 = s.q3 then Printf.sprintf "%.*f" d s.median
  else Printf.sprintf "%.*f [%.*f, %.*f]" d s.median d s.q1 d s.q3

(* seconds per call, shown in ms *)
let msec samples = show (scale 1000. (spread samples))

(* [header] over [rows] of cells, each column as wide as its widest cell *)
let table header rows =
  let widths =
    List.fold_left
      (List.map2 (fun w cell -> max w (String.length cell)))
      (List.map String.length header) rows
  in
  List.iter
    (fun cells ->
      let padded =
        List.map2 (fun w cell -> cell ^ String.make (w - String.length cell) ' ') widths cells
      in
      print_endline (String.trim (String.concat "  " padded)))
    (header :: rows)

(* named figures as table cells after [cells], and as JSON fields
   after [fields] *)
let figures_row cells figures = cells @ List.map (fun (_, s) -> show s) figures

let figures_json fields figures =
  let open Xsb.Json in
  let spread s = Obj [ ("median", Float s.median); ("q1", Float s.q1); ("q3", Float s.q3) ] in
  Obj (fields @ List.map (fun (name, s) -> (name, spread s)) figures)

(* The one writer of BENCH_<name>.json: an object with the experiment's
   name, repetition count and size setting first; a list field puts one
   element per line. *)
let write_json name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let fields =
    ("experiment", Xsb.Json.String name)
    :: ("repetitions", Xsb.Json.Int (reps ()))
    :: ("quick", Xsb.Json.Bool !quick)
    :: fields
  in
  Out_channel.with_open_text file (fun oc ->
      List.iteri
        (fun i (key, value) ->
          output_string oc (if i = 0 then "{ " else ",\n  ");
          output_string oc (Xsb.Json.to_string (Xsb.Json.String key) ^ ": ");
          match value with
          | Xsb.Json.List items ->
              output_string oc "[\n    ";
              output_string oc (String.concat ",\n    " (List.map Xsb.Json.to_string items));
              output_string oc "\n  ]"
          | value -> output_string oc (Xsb.Json.to_string value))
        fields;
      output_string oc "\n}\n");
  Printf.printf "wrote %s\n%!" file

let header title = Printf.printf "\n==== %s ====\n%!" title
let row fmt = Printf.printf fmt
