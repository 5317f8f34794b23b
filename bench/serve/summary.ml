(* Results: the one-line JSON result, the per-run summary file, and
   [compare] over two sets of summaries. Parsing goes through
   [Xsb.Json]; rendering is local because [Xsb.Json] prints floats with
   six significant digits and a measurement must keep all of its own. *)

module J = Xsb.Json

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  valid : bool;  (** every op type reached [min_samples] *)
  samples : (string * int) list;  (** measured samples per op type *)
  metrics : metric list;  (** the set BENCHMARK.json names for this mode *)
  extra : metric list;  (** workload-specific figures, reported but not gated *)
}

let min_samples = 2000

(* shortest text that reads back as the same float *)
let float_lit f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec render buf = function
  | J.Null -> Buffer.add_string buf "null"
  | J.Bool b -> Buffer.add_string buf (string_of_bool b)
  | J.Int i -> Buffer.add_string buf (string_of_int i)
  | J.Float f -> Buffer.add_string buf (float_lit f)
  | J.String _ as s -> Buffer.add_string buf (J.to_string s)
  | J.List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          render buf v)
        l;
      Buffer.add_char buf ']'
  | J.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (J.to_string (J.String k));
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  render buf j;
  Buffer.contents buf

let metrics_json ms =
  J.Obj (List.map (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ])) ms)

(* the contract's result line: exactly these four keys *)
let result_line r =
  to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", metrics_json r.metrics);
       ])

let result_json r =
  J.Obj
    [
      ("workload", J.String r.workload);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("valid", J.Bool r.valid);
      ("samples", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) r.samples));
      ("metrics", metrics_json r.metrics);
      ("extra", metrics_json r.extra);
    ]

let summary_json ~env results = J.Obj [ ("env", J.Obj env); ("results", J.List (List.map result_json results)) ]

(* --- reading back --- *)

let fail fmt = Printf.ksprintf failwith fmt

let member k j = match J.member k j with Some v -> v | None -> fail "missing key %S" k

let metrics_of j =
  match j with
  | J.Obj fields ->
      List.map
        (fun (name, m) ->
          match (Option.bind (J.member "value" m) J.as_float, Option.bind (J.member "unit" m) J.as_string) with
          | Some value, Some unit_ -> { name; value; unit_ }
          | _ -> fail "bad metric %S" name)
        fields
  | _ -> fail "metrics: expected an object"

let result_of j =
  let int k = match J.as_int (member k j) with Some i -> i | None -> fail "%s: expected an int" k in
  let bool k = match member k j with J.Bool b -> b | _ -> fail "%s: expected a bool" k in
  {
    workload = (match J.as_string (member "workload" j) with Some s -> s | None -> fail "workload");
    correct = bool "correct";
    attempted = int "attempted";
    failed = int "failed";
    valid = bool "valid";
    samples =
      (match member "samples" j with
      | J.Obj l -> List.map (fun (k, v) -> (k, Option.value (J.as_int v) ~default:0)) l
      | _ -> fail "samples");
    metrics = metrics_of (member "metrics" j);
    extra = metrics_of (member "extra" j);
  }

let parse text = match J.of_string text with Ok j -> j | Error e -> fail "bad JSON: %s" e

let results_of_summary text =
  match member "results" (parse text) with
  | J.List l -> List.map result_of l
  | _ -> fail "results: expected a list"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

(* --- BENCHMARK.json: each metric's direction and regression bound --- *)

type spec = { lower_better : bool; bound : float option }

(* (end_to_end, per_layer): each metric's name and spec *)
let specs_of_benchmark text =
  let j = parse text in
  let section k =
    match J.member k j with
    | Some (J.List l) ->
        List.filter_map
          (fun m ->
            match (Option.bind (J.member "name" m) J.as_string, Option.bind (J.member "better" m) J.as_string) with
            | Some name, Some better ->
                Some (name, { lower_better = better = "lower"; bound = Option.bind (J.member "bound" m) J.as_float })
            | _ -> None)
          l
    | _ -> []
  in
  (section "end_to_end", section "per_layer")

(* --- compare --- *)

type verdict = Better | Worse | Same | Unresolved

let verdict_name = function Better -> "better" | Worse -> "worse" | Same -> "same" | Unresolved -> "unresolved"

(* [a] is the base set of runs, [b] the candidate. A metric whose base
   runs spread (interquartile range over median) wider than its bound
   cannot be judged against that bound: unresolved, unless every
   candidate run beats every base run. Otherwise a median worse by more
   than the bound is a regression, and a gain needs the candidate to
   win nine in ten pairs by more than the base runs' own spread. *)
let judge spec a b =
  let q1, med_a, q3 = Stats.quartiles a in
  let med_b = Stats.median b in
  let worse_by x y = if spec.lower_better then x -. y else y -. x in
  let spread = (q3 -. q1) /. Float.abs med_a in
  let rel = worse_by med_b med_a /. Float.abs med_a in
  let pairs = min (Array.length a) (Array.length b) in
  let count p = List.length (List.filter p (List.init pairs Fun.id)) in
  let wins = count (fun i -> worse_by b.(i) a.(i) < 0.0) in
  let losses = count (fun i -> worse_by b.(i) a.(i) > 0.0) in
  let decisive n = pairs > 0 && 10 * n >= 9 * pairs && Float.abs (med_b -. med_a) > q3 -. q1 in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> worse_by y x < 0.0) a) b in
  match spec.bound with
  | Some bound when spread > bound -> if all_better then Better else Unresolved
  | Some bound when rel > bound -> Worse
  | _ when decisive wins -> Better
  | None when decisive losses -> Worse
  | _ -> Same

type row = {
  r_workload : string;
  r_metric : string;
  r_unit : string;
  a_q : float * float * float;
  b_q : float * float * float;
  r_bound : float option;
  r_verdict : verdict;
}

let compare_sets specs a_files b_files =
  let load files = List.concat_map (fun f -> results_of_summary (read_file f)) files in
  let a = load a_files and b = load b_files in
  let values results w m =
    List.filter_map
      (fun r ->
        if r.workload = w then
          List.find_opt (fun x -> x.name = m) (r.metrics @ r.extra) |> Option.map (fun x -> (x.value, x.unit_))
        else None)
      results
  in
  let keys =
    List.sort_uniq compare (List.concat_map (fun r -> List.map (fun m -> (r.workload, m.name)) (r.metrics @ r.extra)) a)
  in
  List.filter_map
    (fun (w, m) ->
      match (List.assoc_opt m specs, values a w m, values b w m) with
      | Some spec, (_ :: _ as va), (_ :: _ as vb) ->
          let va = Array.of_list (List.map fst va) and unit_ = snd (List.hd vb) in
          let vb = Array.of_list (List.map fst vb) in
          Some
            {
              r_workload = w;
              r_metric = m;
              r_unit = unit_;
              a_q = Stats.quartiles va;
              b_q = Stats.quartiles vb;
              r_bound = spec.bound;
              r_verdict = judge spec va vb;
            }
      | _ -> None)
    keys

let pp_row ppf r =
  let q (a, b, c) = Printf.sprintf "%.4g [%.4g, %.4g]" b a c in
  Format.fprintf ppf "%-17s %-24s %-6s %-30s %-30s %-6s %s@." r.r_workload r.r_metric r.r_unit (q r.a_q) (q r.b_q)
    (match r.r_bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
    (verdict_name r.r_verdict)
