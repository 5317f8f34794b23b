exception Bad_object_file of string

(* Version 04: the payload is a count and that many mutation records
   ({!Record}), the journal's own codec, so one decoder serves images,
   snapshots, the journal and replication. The digest in the header
   detects accidental corruption, but it is computed from the payload
   itself, so it proves integrity, not origin: anyone can forge a
   "valid" image (the server accepts them over CONSULT fmt=obj). The
   record decoder validates every tag, length and count, so untrusted
   image bytes can at worst produce a typed [Bad_object_file]. *)
let magic = "XSBOBJ04"

let image_bytes db keys =
  let records =
    List.concat_map
      (fun (name, arity) ->
        match Database.find db name arity with Some p -> Record.of_pred p | None -> [])
      keys
  in
  let payload =
    let b = Buffer.create 4096 in
    Codec.put_u32 b (List.length records);
    List.iter (Record.put b) records;
    Buffer.contents b
  in
  let b = Buffer.create (String.length payload + 32) in
  Buffer.add_string b magic;
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

let save db keys path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (image_bytes db keys))

let save_all db path =
  save db (List.map (fun p -> (Pred.name p, Pred.arity p)) (Database.preds db)) path

(* 256 MiB: far above any real image, far below an allocation that a
   corrupt length field could use to take the process down *)
let max_payload = 256 * 1024 * 1024

(* The [Set_table_mode] that {!Database.set_table_mode} would refuse,
   found before anything is applied: a predicate's mode is the
   database's until the stream removes it, then the stream's own. *)
let check_table_modes db records =
  let modes = Hashtbl.create 16 in
  List.iter
    (function
      | Record.Remove_pred { name; arity } -> Hashtbl.replace modes (name, arity) Pred.Variant
      | Record.Set_table_mode { name; arity; mode } ->
          let existing =
            match (Hashtbl.find_opt modes (name, arity), Database.find db name arity) with
            | Some m, _ -> m
            | None, p -> Option.fold ~none:Pred.Variant ~some:Pred.table_mode p
          in
          if existing <> mode && existing <> Pred.Variant then
            raise
              (Bad_object_file (Printf.sprintf "conflicting table modes for %s/%d" name arity));
          Hashtbl.replace modes (name, arity) mode
      | _ -> ())
    records

let load_string db image_bytes =
  let fail msg = raise (Bad_object_file msg) in
  let total = String.length image_bytes in
  let magic_len = String.length magic in
  if total < magic_len then fail "truncated header";
  if String.sub image_bytes 0 magic_len <> magic then fail "bad magic header";
  if total < magic_len + 4 + 16 then fail "truncated header";
  let len = Int32.to_int (String.get_int32_be image_bytes magic_len) land 0xffffffff in
  if len > max_payload then fail "implausible payload length";
  if total < magic_len + 4 + 16 + len then fail "truncated payload";
  let digest = String.sub image_bytes (magic_len + 4) 16 in
  let payload = String.sub image_bytes (magic_len + 4 + 16) len in
  if not (Digest.equal (Digest.string payload) digest) then fail "payload digest mismatch";
  (* every record is decoded and checked before any is applied, so an
     image that is refused leaves the database as it was *)
  let records =
    try
      let c = Codec.cursor payload in
      let records = Codec.get_list c Record.get in
      if c.Codec.pos <> String.length payload then fail "trailing bytes after image";
      records
    with Codec.Decode_error msg -> fail msg
  in
  check_table_modes db records;
  List.fold_left
    (fun n r ->
      Record.apply db r;
      match r with Record.Add_clause _ -> n + 1 | _ -> n)
    0 records

let load db path =
  In_channel.with_open_bin path (fun ic ->
      if In_channel.length ic > Int64.of_int (max_payload + 1024) then
        raise (Bad_object_file "implausible file size");
      load_string db (In_channel.input_all ic))
