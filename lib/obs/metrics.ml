(* The process-wide metrics registry (ISSUE PR 8): counters, gauges and
   log-bucketed latency histograms, rendered in the Prometheus text
   exposition format by a self-contained encoder.

   It is the one store of accounting numbers: request rates, latency
   quantiles, table-space bytes, journal durability lag, and — while
   profiling is on — the engine's per-predicate profile ({!Obs.Profile}
   records its [xsb_pred_*] series here and renders [--profile] from a
   scrape of them). The server's METRICS op serves it over the wire.

   The record path is lock-cheap: a counter bump is one [Atomic.incr]
   behind one boolean read; a histogram observation takes a per-histogram
   mutex around a four-field update (bucket find is a binary search over
   a small immutable array). Registration (find-or-create of a family or
   child) takes the registry mutex, but instrument holders are expected
   to register once and keep the handle. *)

type labels = (string * string) list

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let valid_label_name name =
  String.length name > 0
  && name.[0] <> ':'
  && valid_name name
  (* label names may not use the metric-name-only ':' *)
  && String.for_all (fun c -> c <> ':') name

(* ------------------------------------------------------------------ *)
(* Histograms *)

module Histogram = struct
  (* Log-spaced bucket upper bounds: factor 2 from 1 microsecond to
     ~67 seconds (in seconds). Every request latency this server can
     produce lands inside with <= 2x relative quantile error. *)
  let default_buckets = Array.init 27 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

  type t = {
    bounds : float array;  (* ascending; the +Inf bucket is implicit *)
    counts : int array;  (* length = Array.length bounds + 1 *)
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
    lock : Mutex.t;
    on : bool ref;  (* the owning registry's enabled flag *)
  }

  let make ~on bounds =
    let bounds = Array.copy bounds in
    Array.sort compare bounds;
    if Array.length bounds = 0 then invalid_arg "Metrics.Histogram: no buckets";
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      count = 0;
      sum = 0.0;
      vmin = Float.infinity;
      vmax = Float.neg_infinity;
      lock = Mutex.create ();
      on = on;
    }

  let create ?(buckets = default_buckets) () = make ~on:(ref true) buckets

  (* index of the first bound >= v, or the +Inf slot *)
  let bucket_index bounds v =
    let n = Array.length bounds in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo

  let observe h v =
    if !(h.on) then begin
      Mutex.lock h.lock;
      h.counts.(bucket_index h.bounds v) <- h.counts.(bucket_index h.bounds v) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v;
      Mutex.unlock h.lock
    end

  let count h = h.count
  let sum h = h.sum
  let min_value h = if h.count = 0 then 0.0 else h.vmin
  let max_value h = if h.count = 0 then 0.0 else h.vmax

  (* cumulative (upper_bound, count) pairs, +Inf last *)
  let cumulative h =
    Mutex.lock h.lock;
    let acc = ref 0 in
    let rows =
      Array.to_list
        (Array.mapi
           (fun i c ->
             acc := !acc + c;
             ((if i < Array.length h.bounds then h.bounds.(i) else Float.infinity), !acc))
           h.counts)
    in
    Mutex.unlock h.lock;
    rows

  (* Quantile by linear interpolation inside the target bucket (the
     same estimate Prometheus' histogram_quantile computes), clamped to
     the exact observed min/max so q=0/q=1 are exact. *)
  let quantile h q =
    if h.count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = q *. float_of_int h.count in
      let rec find prev_cum prev_bound = function
        | [] -> max_value h
        | (bound, cum) :: rest ->
            if float_of_int cum >= rank && cum > prev_cum then begin
              let lo = Float.max prev_bound (min_value h) in
              let hi = if bound = Float.infinity then max_value h else Float.min bound (max_value h) in
              let inside = float_of_int (cum - prev_cum) in
              let frac = (rank -. float_of_int prev_cum) /. inside in
              lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac))
            end
            else find cum bound rest
      in
      find 0 0.0 (cumulative h)
    end

  let percentile h p = quantile h (p /. 100.0)
end

(* ------------------------------------------------------------------ *)
(* The registry *)

type counter = { c_value : int Atomic.t; c_on : bool ref }
type gauge = { g_value : float Atomic.t; g_on : bool ref }

type value_ =
  | Vcounter of counter
  | Vgauge of gauge
  | Vgauge_fn of (unit -> float)
  | Vhistogram of Histogram.t

type kind = Counter | Gauge | Histo

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histo -> "histogram"

type child = { ch_labels : labels; ch_value : value_ }

type family = {
  fam_name : string;
  fam_help : string;
  fam_kind : kind;
  mutable fam_children : child list;  (* insertion order *)
}

type t = { mutable families : family list; lock : Mutex.t; on : bool ref }

let create () = { families = []; lock = Mutex.create (); on = ref true }
let enabled t = !(t.on)
let set_enabled t flag = t.on := flag

let check_labels labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then invalid_arg ("Metrics: bad label name " ^ k))
    labels;
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* find-or-create, under the registry lock *)
let child t ~name ~help ~kind ~labels make =
  if not (valid_name name) then invalid_arg ("Metrics: bad metric name " ^ name);
  let labels = check_labels labels in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let fam =
        match List.find_opt (fun f -> f.fam_name = name) t.families with
        | Some f ->
            if f.fam_kind <> kind then
              invalid_arg
                (Printf.sprintf "Metrics: %s re-registered as a %s (was a %s)" name
                   (kind_name kind) (kind_name f.fam_kind));
            f
        | None ->
            let f = { fam_name = name; fam_help = help; fam_kind = kind; fam_children = [] } in
            t.families <- t.families @ [ f ];
            f
      in
      match List.find_opt (fun c -> c.ch_labels = labels) fam.fam_children with
      | Some c -> c.ch_value
      | None ->
          let v = make () in
          fam.fam_children <- fam.fam_children @ [ { ch_labels = labels; ch_value = v } ];
          v)

let counter t ?(labels = []) ~help name =
  match
    child t ~name ~help ~kind:Counter ~labels (fun () ->
        Vcounter { c_value = Atomic.make 0; c_on = t.on })
  with
  | Vcounter c -> c
  | _ -> assert false

let gauge t ?(labels = []) ~help name =
  match
    child t ~name ~help ~kind:Gauge ~labels (fun () ->
        Vgauge { g_value = Atomic.make 0.0; g_on = t.on })
  with
  | Vgauge g -> g
  | _ -> assert false

(* sampled at scrape time: the cheapest way to expose a value the
   instrumented code already maintains (queue depth, table bytes) *)
let gauge_fn t ?(labels = []) ~help name f =
  ignore (child t ~name ~help ~kind:Gauge ~labels (fun () -> Vgauge_fn f))

let histogram t ?(buckets = Histogram.default_buckets) ?(labels = []) ~help name =
  match
    child t ~name ~help ~kind:Histo ~labels (fun () ->
        Vhistogram (Histogram.make ~on:t.on buckets))
  with
  | Vhistogram h -> h
  | _ -> assert false

module Counter = struct
  type t = counter

  let incr c = if !(c.c_on) then ignore (Atomic.fetch_and_add c.c_value 1)
  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    if !(c.c_on) then ignore (Atomic.fetch_and_add c.c_value n)

  let value c = Atomic.get c.c_value
end

module Gauge = struct
  type t = gauge

  let set g v = if !(g.g_on) then Atomic.set g.g_value v
  let value g = Atomic.get g.g_value

  let rec add g d =
    if !(g.g_on) then begin
      let v = Atomic.get g.g_value in
      if not (Atomic.compare_and_set g.g_value v (v +. d)) then add g d
    end

  let incr g = add g 1.0
  let decr g = add g (-1.0)

  (* a high-water mark shared across threads: a plain read-then-set
     could lose a larger value written in between *)
  let rec set_max g v =
    if !(g.g_on) then begin
      let cur = Atomic.get g.g_value in
      if v > cur && not (Atomic.compare_and_set g.g_value cur v) then set_max g v
    end
end

(* ------------------------------------------------------------------ *)
(* The Prometheus text exposition encoder *)

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_text labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
    ^ "}"

let float_text f =
  if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest representation that still round-trips, so a scraped
       value parses back to exactly what was recorded *)
    let short = Printf.sprintf "%.9g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let render_family buf fam =
  Printf.bprintf buf "# HELP %s %s\n" fam.fam_name (escape_help fam.fam_help);
  Printf.bprintf buf "# TYPE %s %s\n" fam.fam_name (kind_name fam.fam_kind);
  List.iter
    (fun { ch_labels = labels; ch_value } ->
      match ch_value with
      | Vcounter c ->
          Printf.bprintf buf "%s%s %d\n" fam.fam_name (label_text labels) (Atomic.get c.c_value)
      | Vgauge g ->
          Printf.bprintf buf "%s%s %s\n" fam.fam_name (label_text labels)
            (float_text (Atomic.get g.g_value))
      | Vgauge_fn f ->
          let v = try f () with _ -> Float.nan in
          Printf.bprintf buf "%s%s %s\n" fam.fam_name (label_text labels) (float_text v)
      | Vhistogram h ->
          (* _count is the +Inf row of the same locked read as the
             buckets: an observation landing mid-render cannot make the
             two disagree *)
          let rows = Histogram.cumulative h in
          List.iter
            (fun (bound, cum) ->
              Printf.bprintf buf "%s_bucket%s %d\n" fam.fam_name
                (label_text (labels @ [ ("le", float_text bound) ]))
                cum)
            rows;
          Printf.bprintf buf "%s_sum%s %s\n" fam.fam_name (label_text labels)
            (float_text (Histogram.sum h));
          Printf.bprintf buf "%s_count%s %d\n" fam.fam_name (label_text labels)
            (List.fold_left (fun _ (_, cum) -> cum) 0 rows))
    fam.fam_children

let to_text t =
  Mutex.lock t.lock;
  let families = t.families in
  Mutex.unlock t.lock;
  let buf = Buffer.create 4096 in
  List.iter (render_family buf) families;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The parse-back checker: reads an exposition back and verifies its
   shape, so tests, the client and CI can reject a malformed scrape
   without a real Prometheus server. *)

module Exposition = struct
  type sample = { s_name : string; s_labels : labels; s_value : float }

  exception Bad of string

  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  let parse_value text =
    match text with
    | "+Inf" -> Float.infinity
    | "-Inf" -> Float.neg_infinity
    | "NaN" -> Float.nan
    | _ -> (
        match float_of_string_opt text with
        | Some f -> f
        | None -> fail "bad sample value %S" text)

  (* name{k="v",...} with escaped label values *)
  let parse_sample lineno line =
    let len = String.length line in
    let rec name_end i =
      if i < len then
        match line.[i] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> name_end (i + 1)
        | _ -> i
      else i
    in
    let ne = name_end 0 in
    if ne = 0 then fail "line %d: no metric name" lineno;
    let s_name = String.sub line 0 ne in
    let labels = ref [] in
    let i = ref ne in
    if !i < len && line.[!i] = '{' then begin
      incr i;
      let rec one () =
        let ks = !i in
        while !i < len && line.[!i] <> '=' do incr i done;
        if !i >= len then fail "line %d: unterminated label" lineno;
        let key = String.sub line ks (!i - ks) in
        if not (valid_label_name key) then fail "line %d: bad label name %S" lineno key;
        incr i;
        if !i >= len || line.[!i] <> '"' then fail "line %d: expected quoted label value" lineno;
        incr i;
        let buf = Buffer.create 16 in
        let rec value () =
          if !i >= len then fail "line %d: unterminated label value" lineno
          else
            match line.[!i] with
            | '"' -> incr i
            | '\\' ->
                if !i + 1 >= len then fail "line %d: dangling escape" lineno;
                (match line.[!i + 1] with
                | '\\' -> Buffer.add_char buf '\\'
                | '"' -> Buffer.add_char buf '"'
                | 'n' -> Buffer.add_char buf '\n'
                | c -> fail "line %d: bad escape \\%c" lineno c);
                i := !i + 2;
                value ()
            | c ->
                Buffer.add_char buf c;
                incr i;
                value ()
        in
        value ();
        labels := (key, Buffer.contents buf) :: !labels;
        if !i < len && line.[!i] = ',' then begin
          incr i;
          one ()
        end
        else if !i < len && line.[!i] = '}' then incr i
        else fail "line %d: expected ',' or '}' in labels" lineno
      in
      if !i < len && line.[!i] = '}' then incr i else one ()
    end;
    if !i >= len || line.[!i] <> ' ' then fail "line %d: expected ' ' before value" lineno;
    let value_text = String.sub line (!i + 1) (len - !i - 1) in
    { s_name; s_labels = List.rev !labels; s_value = parse_value (String.trim value_text) }

  (* the family a sample belongs to: histogram series drop their
     _bucket/_sum/_count suffix *)
  let family_of types sample =
    let strip suffix name =
      let n = String.length name and m = String.length suffix in
      if n > m && String.sub name (n - m) m = suffix then Some (String.sub name 0 (n - m))
      else None
    in
    let histo base = match Hashtbl.find_opt types base with Some "histogram" -> true | _ -> false in
    match strip "_bucket" sample.s_name with
    | Some base when histo base -> base
    | _ -> (
        match strip "_sum" sample.s_name with
        | Some base when histo base -> base
        | _ -> (
            match strip "_count" sample.s_name with
            | Some base when histo base -> base
            | _ -> sample.s_name))

  let check text =
    let lines = String.split_on_char '\n' text in
    let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let helps : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let samples = ref [] in
    let seen_series : (string * labels, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        if line = "" then ()
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
          match String.index_from_opt line 7 ' ' with
          | None -> fail "line %d: HELP without text" lineno
          | Some sp ->
              let name = String.sub line 7 (sp - 7) in
              if not (valid_name name) then fail "line %d: bad HELP name %S" lineno name;
              if Hashtbl.mem helps name then fail "line %d: duplicate HELP for %s" lineno name;
              Hashtbl.add helps name ()
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.index_from_opt line 7 ' ' with
          | None -> fail "line %d: TYPE without kind" lineno
          | Some sp ->
              let name = String.sub line 7 (sp - 7) in
              let kind = String.sub line (sp + 1) (String.length line - sp - 1) in
              if not (valid_name name) then fail "line %d: bad TYPE name %S" lineno name;
              if Hashtbl.mem types name then fail "line %d: duplicate TYPE for %s" lineno name;
              if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
              then fail "line %d: unknown kind %S" lineno kind;
              Hashtbl.add types name kind
        end
        else if line.[0] = '#' then ()  (* plain comment *)
        else begin
          let s = parse_sample lineno line in
          let key = (s.s_name, s.s_labels) in
          if Hashtbl.mem seen_series key then
            fail "line %d: duplicate series %s%s" lineno s.s_name (label_text s.s_labels);
          Hashtbl.add seen_series key ();
          let fam = family_of types s in
          if not (Hashtbl.mem types fam) then
            fail "line %d: sample %s has no TYPE declaration" lineno s.s_name;
          (match Hashtbl.find_opt types fam with
          | Some "counter" ->
              if Float.is_nan s.s_value || s.s_value < 0.0 then
                fail "line %d: counter %s has value %s" lineno s.s_name (float_text s.s_value)
          | _ -> ());
          samples := (fam, s) :: !samples
        end)
      lines;
    let samples = List.rev !samples in
    (* every declared family has at least one sample *)
    Hashtbl.iter
      (fun name _ ->
        if not (List.exists (fun (fam, _) -> fam = name) samples) then
          fail "family %s declared but has no samples" name)
      types;
    (* histogram shape: per label set, buckets sorted by le with
       nondecreasing cumulative counts, ending at le="+Inf" whose count
       equals the _count sample; a _sum sample exists *)
    Hashtbl.iter
      (fun name kind ->
        if kind = "histogram" then begin
          let of_suffix suffix =
            List.filter_map
              (fun (fam, s) -> if fam = name && s.s_name = name ^ suffix then Some s else None)
              samples
          in
          let buckets = of_suffix "_bucket" in
          let counts = of_suffix "_count" in
          let sums = of_suffix "_sum" in
          if buckets = [] then fail "histogram %s has no buckets" name;
          let base_labels s = List.filter (fun (k, _) -> k <> "le") s.s_labels in
          let groups = List.sort_uniq compare (List.map base_labels buckets) in
          List.iter
            (fun g ->
              let series =
                List.filter_map
                  (fun s ->
                    if base_labels s = g then
                      match List.assoc_opt "le" s.s_labels with
                      | Some le -> Some (parse_value le, s.s_value)
                      | None -> fail "histogram %s bucket without le" name
                    else None)
                  buckets
              in
              let sorted = List.sort (fun (a, _) (b, _) -> compare a b) series in
              if sorted <> series then fail "histogram %s buckets not in le order" name;
              ignore
                (List.fold_left
                   (fun prev (_, c) ->
                     if c < prev then fail "histogram %s bucket counts not cumulative" name;
                     c)
                   0.0 sorted);
              (match List.rev sorted with
              | (le, last) :: _ ->
                  if le <> Float.infinity then fail "histogram %s missing +Inf bucket" name;
                  (match List.find_opt (fun s -> base_labels s = g) counts with
                  | None -> fail "histogram %s has no _count" name
                  | Some c ->
                      if c.s_value <> last then
                        fail "histogram %s: +Inf bucket %s <> _count %s" name (float_text last)
                          (float_text c.s_value))
              | [] -> fail "histogram %s has an empty bucket group" name);
              if not (List.exists (fun s -> base_labels s = g) sums) then
                fail "histogram %s has no _sum" name)
            groups
        end)
      types;
    samples

  let validate text =
    match check text with samples -> Ok samples | exception Bad msg -> Error msg

  (* the value of one series, e.g. [find samples "xsb_requests_total"
     ~labels:[("op","QUERY")]]; labels must match exactly *)
  let find ?(labels = []) samples name =
    let labels = List.sort compare labels in
    List.find_map
      (fun (_, s) ->
        if s.s_name = name && List.sort compare s.s_labels = labels then Some s.s_value else None)
      samples

  (* sum of every series of a family (e.g. a labeled counter total) *)
  let sum_family samples name =
    List.fold_left
      (fun acc (fam, s) -> if fam = name && s.s_name = name then acc +. s.s_value else acc)
      0.0 samples
end
