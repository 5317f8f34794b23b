open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* The oracle for the answer index's duplicate detection: a hashtable of
   the canonical answers seen, beside their insertion order. *)
let hash_store () = (Canon.Tbl.create 16, ref [])

let hash_insert (seen, order) c =
  if Canon.Tbl.mem seen c then false
  else begin
    Canon.Tbl.add seen c ();
    order := c :: !order;
    true
  end

(* set semantics: any entry already stored under the same key absorbs *)
let index_insert idx c = Answer_index.insert idx c ~absorbed:(fun _ -> true) c <> None

let args_of s =
  match Term.deref (Parser.term_of_string s) with
  | Term.Struct (_, args) -> args
  | _ -> [||]

let cases =
  [
    t "arg_hash single field" `Quick (fun () ->
        let idx = Arg_hash.create [ 1 ] in
        Arg_hash.insert idx 0 (args_of "p(a,1)");
        Arg_hash.insert idx 1 (args_of "p(b,2)");
        Arg_hash.insert idx 2 (args_of "p(a,3)");
        check_ints "a bucket" [ 0; 2 ] (Option.get (Arg_hash.lookup idx (args_of "p(a,X)")));
        check_ints "b bucket" [ 1 ] (Option.get (Arg_hash.lookup idx (args_of "p(b,X)")));
        check_ints "missing" [] (Option.get (Arg_hash.lookup idx (args_of "p(c,X)")));
        check_bool "unbound arg unusable" true (Arg_hash.lookup idx (args_of "p(X,1)") = None));
    t "arg_hash multi-field combo" `Quick (fun () ->
        let idx = Arg_hash.create [ 1; 3 ] in
        Arg_hash.insert idx 0 (args_of "p(a,x,1)");
        Arg_hash.insert idx 1 (args_of "p(a,y,2)");
        Arg_hash.insert idx 2 (args_of "p(a,z,1)");
        check_ints "combo" [ 0; 2 ] (Option.get (Arg_hash.lookup idx (args_of "p(a,W,1)")));
        check_bool "partial unusable" true (Arg_hash.lookup idx (args_of "p(a,W,Z)") = None));
    t "arg_hash catch-all for variable heads" `Quick (fun () ->
        let idx = Arg_hash.create [ 1 ] in
        Arg_hash.insert idx 0 (args_of "p(a)");
        Arg_hash.insert idx 1 [| Term.fresh_var () |];
        Arg_hash.insert idx 2 (args_of "p(b)");
        check_ints "a + catchall" [ 0; 1 ] (Option.get (Arg_hash.lookup idx (args_of "p(a)")));
        check_ints "c only catchall" [ 1 ] (Option.get (Arg_hash.lookup idx (args_of "p(c)"))));
    t "arg_hash outer symbol only" `Quick (fun () ->
        (* hash indexing discriminates the outer functor only (§4.5) *)
        let idx = Arg_hash.create [ 1 ] in
        Arg_hash.insert idx 0 (args_of "p(f(a))");
        Arg_hash.insert idx 1 (args_of "p(f(b))");
        check_ints "same outer symbol" [ 0; 1 ]
          (Option.get (Arg_hash.lookup idx (args_of "p(f(a))"))));
    t "arg_hash order preserved with asserta ids" `Quick (fun () ->
        let idx = Arg_hash.create [ 1 ] in
        Arg_hash.insert idx 0 (args_of "p(a)");
        Arg_hash.insert idx (-1) (args_of "p(a)");
        Arg_hash.insert idx 1 (args_of "p(a)");
        check_ints "sorted" [ -1; 0; 1 ] (Option.get (Arg_hash.lookup idx (args_of "p(a)"))));
    t "first_string: Example 4.2 strings" `Quick (fun () ->
        (* p(g(a),f(X)) => g/1 a f/1 ; p(g(X),Y) => g/1 *)
        check_int "p(g(a),f(X))" 3
          (List.length (First_string.string_of_head (args_of "p(g(a),f(X))")));
        check_int "p(g(a),f(a))" 4
          (List.length (First_string.string_of_head (args_of "p(g(a),f(a))")));
        check_int "p(g(X),Y)" 1 (List.length (First_string.string_of_head (args_of "p(g(X),Y)"))));
    t "first_string: Example 4.2 trie retrieval" `Quick (fun () ->
        let trie = First_string.create () in
        (* the four clauses of Example 4.2, in order *)
        First_string.insert trie 0 (args_of "p(g(a),f(X))");
        First_string.insert trie 1 (args_of "p(g(a),f(a))");
        First_string.insert trie 2 (args_of "p(g(b),f(1))");
        First_string.insert trie 3 (args_of "p(g(X),Y)");
        (* fully bound call: clauses 0 (prefix), 1 (exact), 3 (general) *)
        check_ints "p(g(a),f(a))" [ 0; 1; 3 ] (First_string.lookup trie (args_of "p(g(a),f(a))"));
        check_ints "p(g(b),f(1))" [ 2; 3 ] (First_string.lookup trie (args_of "p(g(b),f(1))"));
        (* call with variable second arg: subtree under g,a *)
        check_ints "p(g(a),Y)" [ 0; 1; 3 ] (First_string.lookup trie (args_of "p(g(a),Y)"));
        (* open call: everything *)
        check_ints "p(X,Y)" [ 0; 1; 2; 3 ] (First_string.lookup trie (args_of "p(X,Y)"));
        (* no match beyond the general clause *)
        check_ints "p(g(c),f(a))" [ 3 ] (First_string.lookup trie (args_of "p(g(c),f(a))")));
    t "first_string discriminates below the first variable" `Quick (fun () ->
        let trie = First_string.create () in
        First_string.insert trie 0 (args_of "p(g(a),f(X))");
        First_string.insert trie 1 (args_of "p(g(a),f(a))");
        (* clause 1 ends in a deeper symbol 'a' that cannot match f(b),
           and the trie prunes it; clause 0 (string ends at its variable)
           remains a candidate *)
        check_ints "prunes deeper mismatch" [ 0 ]
          (First_string.lookup trie (args_of "p(g(a),f(b))")));
    t "answer store insertion order and dups" `Quick (fun () ->
        let store = Answer_index.create () in
        let c s = Canon.of_term (Parser.term_of_string s) in
        check_bool "new" true (index_insert store (c "p(1)"));
        check_bool "new" true (index_insert store (c "p(2)"));
        check_bool "dup" false (index_insert store (c "p(1)"));
        check_bool "variant dup" false
          (index_insert store (Canon.of_term (Parser.term_of_string "p(1)")));
        check_int "size" 2 (Answer_index.size store);
        check_bool "order" true (Canon.equal (Answer_index.get store 0) (c "p(1)")));
    t "answer store variant semantics with variables" `Quick (fun () ->
        let store = Answer_index.create () in
        let c s = Canon.of_term (Parser.term_of_string s) in
        check_bool "p(X,Y) new" true (index_insert store (c "p(X,Y)"));
        check_bool "p(A,B) variant dup" false (index_insert store (c "p(A,B)"));
        check_bool "p(A,A) distinct" true (index_insert store (c "p(A,A)")));
    t "trie answer store agrees with hash store" `Quick (fun () ->
        let hash = hash_store () in
        let trie = Answer_index.create () in
        let inputs =
          [ "p(1,2)"; "p(X,Y)"; "p(X,X)"; "p(1,2)"; "p(f(X),[1,2])"; "p(f(Y),[1,2])"; "p(a,b)" ]
        in
        List.iter
          (fun s ->
            let c = Canon.of_term (Parser.term_of_string s) in
            check_bool ("agree on " ^ s) (hash_insert hash c) (index_insert trie c))
          inputs;
        check_int "same size" (List.length !(snd hash)) (Answer_index.size trie);
        List.iteri
          (fun i c -> check_bool "same order" true (Canon.equal c (Answer_index.get trie i)))
          (List.rev !(snd hash)));
  ]

let props =
  let open QCheck2 in
  [
    Test.make ~name:"hash and trie answer stores are observationally equal" ~count:100
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 40) Generators.term_gen)
      (fun terms ->
        let hash = hash_store () in
        let trie = Answer_index.create () in
        List.for_all
          (fun t ->
            let c = Canon.of_term (Term.copy t) in
            hash_insert hash c = index_insert trie c)
          terms
        (* both in reverse insertion order *)
        && !(snd hash) = Answer_index.fold_left (fun acc c -> c :: acc) [] trie);
    Test.make ~name:"first_string lookup is a superset of unifiable clauses" ~count:100
      (QCheck2.Gen.pair
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 20) Generators.term_gen)
         Generators.term_gen)
      (fun (heads, call) ->
        let heads = List.map (fun h -> Term.app "p" [ Term.copy h ]) heads in
        let call = Term.app "p" [ Term.copy call ] in
        let trie = First_string.create () in
        List.iteri
          (fun i h ->
            First_string.insert trie i
              (match h with Term.Struct (_, args) -> args | _ -> [||]))
          heads;
        let candidates =
          First_string.lookup trie (match call with Term.Struct (_, args) -> args | _ -> [||])
        in
        let trail = Trail.create () in
        List.for_all
          (fun (i, h) ->
            let m = Trail.mark trail in
            let unifies = Unify.unify trail (Term.copy call) (Term.copy h) in
            Trail.undo_to trail m;
            (not unifies) || List.mem i candidates)
          (List.mapi (fun i h -> (i, h)) heads));
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) props

let disc_cases =
  let open Xsb in
  [
    t "disc tree: discriminates across clause variables" `Quick (fun () ->
        (* first_string stops at the variable; the discrimination tree
           keeps discriminating on f(1) vs f(2) *)
        let tree = Disc_tree.create () in
        Disc_tree.insert tree 0 (args_of "p(g(X), f(1))");
        Disc_tree.insert tree 1 (args_of "p(g(X), f(2))");
        check_ints "only the f(1) clause" [ 0 ] (Disc_tree.lookup tree (args_of "p(g(a), f(1))"));
        check_ints "only the f(2) clause" [ 1 ] (Disc_tree.lookup tree (args_of "p(g(b), f(2))"));
        (* same clauses through first_string: no discrimination *)
        let fs = First_string.create () in
        First_string.insert fs 0 (args_of "p(g(X), f(1))");
        First_string.insert fs 1 (args_of "p(g(X), f(2))");
        check_ints "first_string returns both" [ 0; 1 ]
          (First_string.lookup fs (args_of "p(g(a), f(1))")));
    t "disc tree: call variables skip stored subterms" `Quick (fun () ->
        let tree = Disc_tree.create () in
        Disc_tree.insert tree 0 (args_of "p(g(a), 1)");
        Disc_tree.insert tree 1 (args_of "p(h(b,c), 2)");
        Disc_tree.insert tree 2 (args_of "p(k, 3)");
        check_ints "open first arg" [ 0; 1; 2 ] (Disc_tree.lookup tree (args_of "p(X, Y)"));
        check_ints "open first, bound second" [ 1 ] (Disc_tree.lookup tree (args_of "p(X, 2)")));
    t "disc tree: wildcard in clause matches whole call subterm" `Quick (fun () ->
        let tree = Disc_tree.create () in
        Disc_tree.insert tree 0 (args_of "p(X, tail)");
        Disc_tree.insert tree 1 (args_of "p(f(f(f(a))), tail)");
        check_ints "deep call matches both" [ 0; 1 ]
          (Disc_tree.lookup tree (args_of "p(f(f(f(a))), tail)"));
        check_ints "other deep call matches wildcard only" [ 0 ]
          (Disc_tree.lookup tree (args_of "p(f(f(f(b))), tail)")));
    t "disc tree via the index directive" `Quick (fun () ->
        let db = Xsb.Database.create () in
        ignore
          (Xsb.Loader.consult_string db
             ":- index(p/2, disc).\np(g(X), f(1)). p(g(X), f(2)). p(h, f(1)).");
        let pred = Option.get (Xsb.Database.find db "p" 2) in
        check_int "discriminated" 2 (List.length (Xsb.Pred.lookup pred (args_of "p(W, f(1))"))));
  ]

let disc_props =
  let open QCheck2 in
  [
    Test.make ~name:"disc tree lookup is a superset of unifiable clauses" ~count:150
      (QCheck2.Gen.pair
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 20) Generators.term_gen)
         Generators.term_gen)
      (fun (heads, call) ->
        let open Xsb in
        let heads = List.map (fun h -> Term.app "p" [ Term.copy h ]) heads in
        let call = Term.app "p" [ Term.copy call ] in
        let tree = Disc_tree.create () in
        List.iteri
          (fun i h ->
            Disc_tree.insert tree i (match h with Term.Struct (_, args) -> args | _ -> [||]))
          heads;
        let candidates =
          Disc_tree.lookup tree (match call with Term.Struct (_, args) -> args | _ -> [||])
        in
        let trail = Trail.create () in
        List.for_all
          (fun (i, h) ->
            let m = Trail.mark trail in
            let unifies = Unify.unify trail (Term.copy call) (Term.copy h) in
            Trail.undo_to trail m;
            (not unifies) || List.mem i candidates)
          (List.mapi (fun i h -> (i, h)) heads));
  ]

let suite = suite @ disc_cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) disc_props

(* the payload-carrying trie index behind the SLG machine's answer tables *)
let answer_index_cases =
  let c s = Canon.of_term (Parser.term_of_string s) in
  [
    t "answer index: add/find/get keep insertion order" `Quick (fun () ->
        let idx = Answer_index.create () in
        check_int "pos 0" 0 (Answer_index.add idx (c "p(1,2)") "a");
        check_int "pos 1" 1 (Answer_index.add idx (c "p(1,3)") "b");
        check_int "pos 2" 2 (Answer_index.add idx (c "p(1,2)") "c");
        check_int "size counts entries" 3 (Answer_index.size idx);
        Alcotest.(check string) "get by position" "b" (Answer_index.get idx 1);
        Alcotest.(check (list string))
          "find is exact-key, insertion order" [ "a"; "c" ]
          (Answer_index.find idx (c "p(1,2)"));
        Alcotest.(check (list string)) "find misses" [] (Answer_index.find idx (c "p(2,2)")));
    t "answer index: find is variant lookup, not unification" `Quick (fun () ->
        let idx = Answer_index.create () in
        ignore (Answer_index.add idx (c "p(X,Y)") 0);
        check_int "variant found" 1 (List.length (Answer_index.find idx (c "p(A,B)")));
        check_int "instance not a variant" 0 (List.length (Answer_index.find idx (c "p(1,2)"))));
    t "answer index: bound skeleton prunes candidates" `Quick (fun () ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i s -> ignore (Answer_index.add idx (c s) i))
          [ "p(1,2)"; "p(1,3)"; "p(2,2)"; "p(X,4)"; "p(f(1),5)" ];
        let positions skel = List.map fst (Answer_index.lookup idx (c skel)) in
        check_ints "first arg 1 (plus stored var)" [ 0; 1; 3 ] (positions "p(1,W)");
        check_ints "first arg f(1)" [ 3; 4 ] (positions "p(f(1),W)");
        check_ints "open call sees all" [ 0; 1; 2; 3; 4 ] (positions "p(V,W)");
        check_ints "both args bound" [ 0 ] (positions "p(1,2)");
        check_ints "second arg bound" [ 0; 2 ] (positions "p(V,2)"));
    t "answer index: skeleton variable skips whole stored subterms" `Quick (fun () ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i s -> ignore (Answer_index.add idx (c s) i))
          [ "p(f(g(1),2),a)"; "p(h,a)"; "p(h,b)" ];
        let positions skel = List.map fst (Answer_index.lookup idx (c skel)) in
        check_ints "skip deep structure" [ 0; 1 ] (positions "p(X,a)");
        check_ints "bound deep structure" [ 0 ] (positions "p(f(g(1),2),X)"));
    t "answer index: iter_matching honors ~from" `Quick (fun () ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i s -> ignore (Answer_index.add idx (c s) i))
          [ "p(1,2)"; "p(2,2)"; "p(1,3)" ];
        let seen = ref [] in
        Answer_index.iter_matching ~from:1 idx (c "p(1,W)") (fun pos _ ->
            seen := pos :: !seen);
        check_ints "only positions >= from" [ 2 ] (List.rev !seen));
  ]

let answer_index_props =
  let open QCheck2 in
  [
    (* the acceptance property for the tentpole: filtering a full scan by
       unification and filtering the index candidates by unification give
       the same answers, i.e. the candidate set is a superset of the
       unifying entries (and trivially a subset of the store) *)
    Test.make ~name:"answer index lookup is a superset of unifiable entries" ~count:200
      (QCheck2.Gen.pair
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 25) Generators.term_gen)
         Generators.term_gen)
      (fun (stored, skel) ->
        let keys = List.map (fun t -> Canon.of_term (Term.app "p" [ Term.copy t ])) stored in
        let skel = Canon.of_term (Term.app "p" [ Term.copy skel ]) in
        let idx = Answer_index.create () in
        List.iteri (fun i k -> ignore (Answer_index.add idx k i)) keys;
        let candidates = List.map fst (Answer_index.lookup idx skel) in
        let trail = Trail.create () in
        List.for_all
          (fun (i, k) ->
            let m = Trail.mark trail in
            let unifies = Unify.unify trail (Canon.to_term skel) (Canon.to_term k) in
            Trail.undo_to trail m;
            (not unifies) || List.mem i candidates)
          (List.mapi (fun i k -> (i, k)) keys));
  ]

let suite =
  suite @ answer_index_cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) answer_index_props

(* ---- call-subsumption retrieval and the time-stamped index ---- *)

let subsumption_cases =
  let c s = Canon.of_term (Parser.term_of_string s) in
  [
    t "retrieve_subsuming: exact on non-linear keys" `Quick (fun () ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i s -> ignore (Answer_index.add idx (c s) i : int))
          [ "p(X,X)"; "p(X,Y)"; "p(1,Y)" ];
        let hits probe = List.map fst (Answer_index.retrieve_subsuming idx (c probe)) in
        check_ints "p(1,1) matched by all three" [ 0; 1; 2 ] (hits "p(1,1)");
        check_ints "p(1,2) only linear keys" [ 1; 2 ] (hits "p(1,2)");
        check_ints "p(2,2) not the bound key" [ 0; 1 ] (hits "p(2,2)");
        check_ints "p(f(A),f(A)) respects shared probe vars" [ 0; 1 ] (hits "p(f(A),f(A))");
        check_ints "p(A,B) variants and nothing stricter" [ 1 ] (hits "p(A,B)"));
    t "retrieve_subsuming: probe variable matches stored variables only" `Quick (fun () ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i s -> ignore (Answer_index.add idx (c s) i : int))
          [ "p(f(X))"; "p(Y)" ];
        check_ints "open probe" [ 1 ]
          (List.map fst (Answer_index.retrieve_subsuming idx (c "p(Z)")));
        check_ints "deep probe hits both" [ 0; 1 ]
          (List.map fst (Answer_index.retrieve_subsuming idx (c "p(f(1))"))));
  ]

let subsumption_props =
  let open QCheck2 in
  [
    (* the tentpole "iff" property: an entry comes back from
       [retrieve_subsuming] exactly when one-sided unification says the
       stored key generalizes the probe *)
    Test.make ~name:"retrieve_subsuming hits exactly the subsuming keys" ~count:300
      (Gen.pair (Gen.list_size (Gen.int_range 1 25) Generators.term_gen) Generators.term_gen)
      (fun (stored, probe) ->
        let keys = List.map (fun u -> Canon.of_term (Term.app "p" [ Term.copy u ])) stored in
        let probe = Canon.of_term (Term.app "p" [ Term.copy probe ]) in
        let idx = Answer_index.create () in
        List.iteri (fun i k -> ignore (Answer_index.add idx k i : int)) keys;
        let hits = List.map fst (Answer_index.retrieve_subsuming idx probe) in
        let trail = Trail.create () in
        List.for_all
          (fun (i, k) ->
            let subsumes =
              Unify.instance_of trail ~instance:(Canon.to_term probe)
                ~general:(Canon.to_term k)
            in
            List.mem i hits = subsumes)
          (List.mapi (fun i k -> (i, k)) keys));
    Test.make ~name:"retrieve_subsuming finds the general key of every specialization"
      ~count:300 Generators.subsumption_pair_gen
      (fun (general, specific) ->
        let idx = Answer_index.create () in
        ignore (Answer_index.add idx (Canon.of_term (Term.app "p" [ general ])) 0 : int);
        List.map fst
          (Answer_index.retrieve_subsuming idx
             (Canon.of_term (Term.app "p" [ Term.copy specific ])))
        = [ 0 ]);
    (* the time-stamp property: with an open skeleton, polling from a
       stamp returns exactly the entries inserted at or after it *)
    Test.make ~name:"stamped retrieval returns exactly the entries after the stamp" ~count:300
      (Gen.pair (Gen.list_size (Gen.int_range 1 25) Generators.term_gen) (Gen.int_range 0 30))
      (fun (stored, from) ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i u ->
            ignore (Answer_index.add idx (Canon.of_term (Term.app "p" [ Term.copy u ])) i : int))
          stored;
        let skel = Canon.of_term (Term.app "p" [ Term.fresh_var () ]) in
        let seen = ref [] in
        Answer_index.iter_matching ~from idx skel (fun pos _ -> seen := pos :: !seen);
        let n = List.length stored in
        List.rev !seen = List.init (max 0 (n - from)) (fun i -> from + i));
    Test.make ~name:"stamped lookup is the unstamped lookup filtered by position" ~count:300
      (Gen.triple
         (Gen.list_size (Gen.int_range 1 25) Generators.term_gen)
         Generators.term_gen (Gen.int_range 0 30))
      (fun (stored, skel, from) ->
        let idx = Answer_index.create () in
        List.iteri
          (fun i u ->
            ignore (Answer_index.add idx (Canon.of_term (Term.app "p" [ Term.copy u ])) i : int))
          stored;
        let skel = Canon.of_term (Term.app "p" [ Term.copy skel ]) in
        let at from =
          let seen = ref [] in
          Answer_index.iter_matching ~from idx skel (fun pos _ -> seen := pos :: !seen);
          List.rev !seen
        in
        at from = List.filter (fun pos -> pos >= from) (at 0));
  ]

let suite =
  suite @ subsumption_cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) subsumption_props

let insert_cases =
  let c s = Canon.of_term (Parser.term_of_string s) in
  [
    t "answer index: insert is refused only by an absorbing entry" `Quick (fun () ->
        let idx = Answer_index.create () in
        let ins key x = Answer_index.insert idx (c key) ~absorbed:(fun e -> e = x) x in
        check_bool "first" true (ins "p(1)" "a" = Some 0);
        check_bool "same key, not absorbed" true (ins "p(1)" "b" = Some 1);
        check_bool "absorbed" true (ins "p(1)" "b" = None);
        check_bool "other key" true (ins "p(2)" "b" = Some 2);
        check_int "size" 3 (Answer_index.size idx);
        check_bool "entries of p(1)" true (Answer_index.find idx (c "p(1)") = [ "a"; "b" ]);
        check_bool "absorbed by the first entry" true (ins "p(1)" "a" = None);
        check_int "size unchanged" 3 (Answer_index.size idx));
  ]

let suite = suite @ insert_cases
