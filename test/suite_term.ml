open Xsb

let t = Alcotest.test_case

let parse s = Parser.term_of_string s

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_trail () = Trail.create ()

let unify_ok a b =
  let trail = fresh_trail () in
  let t1, t2 = (parse a, parse b) in
  Unify.unify trail t1 t2

let cases =
  [
    t "unify atoms" `Quick (fun () ->
        check_bool "same" true (unify_ok "a" "a");
        check_bool "diff" false (unify_ok "a" "b"));
    t "unify ints and floats are distinct" `Quick (fun () ->
        check_bool "int/int" true (unify_ok "42" "42");
        check_bool "int/float" false (unify_ok "42" "42.0"));
    t "unify structs" `Quick (fun () ->
        check_bool "deep" true (unify_ok "f(g(X),Y)" "f(Z,h(Z))");
        check_bool "clash" false (unify_ok "f(a,b)" "f(a,c)");
        check_bool "arity" false (unify_ok "f(a)" "f(a,b)"));
    t "clash exactly when the outer symbols differ" `Quick (fun () ->
        List.iter
          (fun (a, b, want) ->
            check_bool (a ^ " vs " ^ b) want (Unify.clash (parse a) (parse b));
            (* a clash is a unification that must fail *)
            if want then check_bool (a ^ " = " ^ b) false (unify_ok a b))
          [
            ("a", "a", false);
            ("a", "b", true);
            ("42", "42", false);
            ("42", "43", true);
            ("42", "42.0", true);
            ("1.5", "1.5", false);
            ("1.5", "2.5", true);
            ("f(a)", "f(b)", false);
            ("f(a)", "g(a)", true);
            ("f(a)", "f(a,b)", true);
            ("f(a)", "f", true);
            ("X", "a", false);
            ("f(X)", "Y", false);
          ]);
    t "unify binds consistently" `Quick (fun () ->
        let trail = fresh_trail () in
        let x = Term.fresh_var () in
        let lhs = Term.app "f" [ x; x ] in
        let rhs = parse "f(a,b)" in
        check_bool "f(X,X) vs f(a,b)" false (Unify.unify trail lhs rhs);
        (* failure must leave X unbound *)
        check_bool "X unbound after failure" true (Term.deref x == x));
    t "unify failure undoes partial bindings" `Quick (fun () ->
        let trail = fresh_trail () in
        let x = Term.fresh_var () and y = Term.fresh_var () in
        let lhs = Term.app "f" [ x; y; x ] in
        let rhs = parse "f(1,2,3)" in
        check_bool "fails" false (Unify.unify trail lhs rhs);
        check_bool "x restored" true (Term.deref x == x);
        check_bool "y restored" true (Term.deref y == y));
    t "occurs check" `Quick (fun () ->
        let trail = fresh_trail () in
        let x = Term.fresh_var () in
        check_bool "without occurs-check binds" true
          (Unify.unify trail x (Term.app "f" [ x ]));
        Trail.undo_to trail 0;
        check_bool "with occurs-check fails" false
          (Unify.unify ~occurs_check:true trail x (Term.app "f" [ x ])));
    t "trail undo_to" `Quick (fun () ->
        let trail = fresh_trail () in
        let x = Term.fresh_var () in
        let m = Trail.mark trail in
        ignore (Unify.unify trail x (parse "a"));
        check_string "bound" "a" (Term.to_string x);
        Trail.undo_to trail m;
        check_bool "unbound again" true (Term.deref x == x));
    t "variant" `Quick (fun () ->
        check_bool "renaming" true (Unify.variant (parse "f(X,Y,X)") (parse "f(A,B,A)"));
        check_bool "not variant (shared)" false (Unify.variant (parse "f(X,Y)") (parse "f(A,A)"));
        check_bool "not variant (reversed sharing)" false
          (Unify.variant (parse "f(X,X)") (parse "f(A,B)"));
        check_bool "ground" true (Unify.variant (parse "f(a,1)") (parse "f(a,1)")));
    t "instance_of" `Quick (fun () ->
        let trail = fresh_trail () in
        check_bool "instance" true
          (Unify.instance_of trail ~instance:(parse "f(a,b)") ~general:(parse "f(X,Y)"));
        check_bool "not instance" false
          (Unify.instance_of trail ~instance:(parse "f(X,b)") ~general:(parse "f(a,Y)"));
        check_bool "shared general" false
          (Unify.instance_of trail ~instance:(parse "f(a,b)") ~general:(parse "f(X,X)"));
        check_bool "shared ok" true
          (Unify.instance_of trail ~instance:(parse "f(a,a)") ~general:(parse "f(X,X)")));
    t "canon variants share keys" `Quick (fun () ->
        let k1 = Canon.of_term (parse "path(X,Y,X)") in
        let k2 = Canon.of_term (parse "path(A,B,A)") in
        let k3 = Canon.of_term (parse "path(A,B,B)") in
        check_bool "variant keys equal" true (Canon.equal k1 k2);
        check_bool "non-variant differ" false (Canon.equal k1 k3));
    t "canon roundtrip" `Quick (fun () ->
        let term = parse "f(X,g(Y,X),[1,2|Z])" in
        let back = Canon.to_term (Canon.of_term term) in
        check_bool "roundtrip is variant" true (Unify.variant term back));
    t "canon nvars and ground" `Quick (fun () ->
        check_int "nvars" 2 (Canon.nvars (Canon.of_term (parse "f(X,Y,X)")));
        check_bool "ground" true (Canon.is_ground (Canon.of_term (parse "f(a,[1,2])")));
        check_bool "nonground" false (Canon.is_ground (Canon.of_term (parse "f(a,X)"))));
    t "canon respects bindings" `Quick (fun () ->
        let trail = fresh_trail () in
        let x = Term.fresh_var () in
        let term = Term.app "f" [ x ] in
        ignore (Unify.unify trail x (parse "a"));
        check_bool "bound part canonical" true
          (Canon.equal (Canon.of_term term) (Canon.of_term (parse "f(a)"))));
    t "standard order" `Quick (fun () ->
        let ordered = [ "X"; "1"; "1.5"; "2"; "abc"; "zzz"; "f(a)"; "f(a,b)"; "g(a,b)" ] in
        (* Var < numbers < atoms < compound (by arity, then name) *)
        let terms = List.map parse ordered in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if i < j then
                  check_bool (Printf.sprintf "%d < %d" i j) true (Term.compare a b < 0))
              terms)
          terms);
    t "copy is a fresh variant" `Quick (fun () ->
        let term = parse "f(X,g(X,Y))" in
        let copy = Term.copy term in
        check_bool "variant" true (Unify.variant term copy);
        let trail = fresh_trail () in
        ignore (Unify.unify trail copy (parse "f(a,g(a,b))"));
        check_bool "original untouched" false (Term.is_ground term));
    t "copy2 shares renaming" `Quick (fun () ->
        let x = Term.fresh_var () in
        let a = Term.app "f" [ x ] and b = Term.app "g" [ x ] in
        let a', b' = Term.copy2 a b in
        let trail = fresh_trail () in
        ignore (Unify.unify trail a' (parse "f(c)"));
        check_bool "copy shares var" true (Term.equal b' (parse "g(c)")));
    t "vars in first-occurrence order" `Quick (fun () ->
        let term = parse "f(X,g(Y),X,Z)" in
        check_int "three vars" 3 (List.length (Term.vars term)));
    t "lists" `Quick (fun () ->
        check_bool "proper" true (Term.to_list (parse "[1,2,3]") <> None);
        check_bool "improper" true (Term.to_list (parse "[1|X]") = None);
        check_int "elements" 3 (List.length (Option.get (Term.to_list (parse "[a,b,c]")))));
    t "size" `Quick (fun () ->
        check_int "atom" 1 (Term.size (parse "a"));
        check_int "struct" 4 (Term.size (parse "f(a,g(b))")));
    t "atom quoting in print" `Quick (fun () ->
        check_string "needs quotes" "'hello world'" (Term.to_string (parse "'hello world'"));
        check_string "no quotes" "hello" (Term.to_string (parse "hello"));
        check_string "symbolic" "++" (Term.to_string (Term.Atom "++")));
    t "vec basics" `Quick (fun () ->
        let v = Vec.create () in
        for i = 0 to 99 do
          Vec.push v i
        done;
        check_int "length" 100 (Vec.length v);
        check_int "get" 42 (Vec.get v 42);
        Vec.set v 42 0;
        check_int "set" 0 (Vec.get v 42);
        check_int "fold" (4950 - 42) (Vec.fold_left ( + ) 0 v));
  ]

(* ---- properties ---- *)

let props =
  let open QCheck2 in
  [
    Test.make ~name:"unify: a term unifies with its copy" ~count:200 Generators.term_gen (fun t ->
        let t = Term.copy t in
        let trail = fresh_trail () in
        let ok = Unify.unify trail (Term.copy t) (Term.copy t) in
        Trail.undo_to trail 0;
        ok);
    Test.make ~name:"canon: equal keys iff variant" ~count:200
      (QCheck2.Gen.pair Generators.term_gen Generators.term_gen) (fun (a, b) ->
        let a = Term.copy a and b = Term.copy b in
        Canon.equal (Canon.of_term a) (Canon.of_term b) = Unify.variant a b);
    Test.make ~name:"copy is variant" ~count:200 Generators.term_gen (fun t ->
        let t = Term.copy t in
        Unify.variant t (Term.copy t));
    Test.make ~name:"compare: antisymmetry and equality" ~count:200
      (QCheck2.Gen.pair Generators.term_gen Generators.term_gen) (fun (a, b) ->
        let a = Term.copy a and b = Term.copy b in
        let c1 = Term.compare a b and c2 = Term.compare b a in
        (c1 = 0) = (c2 = 0) && (c1 < 0) = (c2 > 0));
    Test.make ~name:"canon roundtrip is variant" ~count:200 Generators.term_gen (fun t ->
        let t = Term.copy t in
        Unify.variant t (Canon.to_term (Canon.of_term t)));
    Test.make ~name:"unify then canon keys equal" ~count:200
      (QCheck2.Gen.pair Generators.term_gen Generators.term_gen) (fun (a, b) ->
        let a = Term.copy a and b = Term.copy b in
        let trail = fresh_trail () in
        let ok = Unify.unify trail a b in
        let result = (not ok) || Canon.equal (Canon.of_term a) (Canon.of_term b) in
        Trail.undo_to trail 0;
        result);
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
