(* In-memory spans for the traced replay: one per call into a layer,
   parented to the request (or setup phase) that caused it, written out
   as JSONL only when the replay ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  req : int;  (** request id; 0 for setup work *)
  name : string;
  start_ns : int;
  end_ns : int;
  minor_words : float;  (** allocated inside the span, children included *)
}

type t = { mutable spans : span list; mutable next : int; origin : int64 }

let create () = { spans = []; next = 1; origin = Xsb.Mclock.now_ns () }
let since t = Int64.to_int (Int64.sub (Xsb.Mclock.now_ns ()) t.origin)

(* run [f id] inside a new span; [f] passes [id] on as its children's
   parent *)
let record t ~parent ~req name f =
  let id = t.next in
  t.next <- id + 1;
  let w0 = Gc.minor_words () in
  let start_ns = since t in
  let r = f id in
  let end_ns = since t in
  let minor_words = Gc.minor_words () -. w0 in
  t.spans <- { id; parent; req; name; start_ns; end_ns; minor_words } :: t.spans;
  r

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* a span's duration minus the part of it its children cover; children
   may overlap each other or overhang the parent *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max s.start_ns c.start_ns, min s.end_ns c.end_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) kids
      in
      Hashtbl.replace self s.id (s.end_ns - s.start_ns - covered))
    spans;
  self

let to_jsonl oc spans =
  let self = self_times spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\"minor_words\":%.0f}\n"
        s.id s.parent s.req s.name s.start_ns s.end_ns (Hashtbl.find self s.id) s.minor_words)
    spans
