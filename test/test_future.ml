(* The bounded-future extension: verdict-delay monitoring must agree with
   the naive finite-trace semantics, and the buffer must stay bounded. *)

open Helpers
module Future = Rtic_core.Future
module F = Formula

let cat = Gen.generic_catalog

(* Run the Future monitor over a history; returns (index, satisfied) pairs in
   order, concatenating step verdicts and the finish flush. *)
let future_verdicts cat f h =
  let d = { F.name = "t"; body = f } in
  let st = get_ok "create" (Future.create cat d) in
  let st, out =
    List.fold_left
      (fun (st, out) (time, db) ->
        let st, vs = get_ok "step" (Future.step st ~time db) in
        (st, out @ vs))
      (st, [])
      (History.snapshots h)
  in
  out @ Future.finish st
  |> List.map (fun v -> (v.Future.index, v.Future.satisfied))

(* Handcrafted: t=0 {}, t=2 {e}, t=5 {}, t=6 {e}. *)
let h4 () = generic_history "@0\n@2\n+e()\n@5\n-e()\n@6\n+e()\n"

let semantics_cases =
  [ Alcotest.test_case "eventually" `Quick (fun () ->
        (* eventually[0,3] e(): pos0 (t0): e at t2 d2 <=3 -> T.
           pos1 (t2): e now -> T. pos2 (t5): e at t6 d1 -> T.
           pos3 (t6): e now -> T. *)
        Alcotest.(check (list (pair int bool)))
          "vector"
          [ (0, true); (1, true); (2, true); (3, true) ]
          (future_verdicts cat (parse_formula "eventually[0,3] e()") (h4 ())));
    Alcotest.test_case "eventually-narrow" `Quick (fun () ->
        (* eventually[3,4] e(): pos0: states at d in [3,4]? t2 no... none -> F.
           pos1 (t2): t5 d3 in [3,4], no e at t5; t6 d4, e -> T.
           pos2 (t5): no state in [8,9] -> F. pos3: none -> F. *)
        Alcotest.(check (list (pair int bool)))
          "vector"
          [ (0, false); (1, true); (2, false); (3, false) ]
          (future_verdicts cat (parse_formula "eventually[3,4] e()") (h4 ())));
    Alcotest.test_case "next" `Quick (fun () ->
        (* next[0,2] e(): pos0: gap 2, e at t2 -> T. pos1: gap 3 > 2 -> F.
           pos2: gap 1, e at t6 -> T. pos3: no next -> F. *)
        Alcotest.(check (list (pair int bool)))
          "vector"
          [ (0, true); (1, false); (2, true); (3, false) ]
          (future_verdicts cat (parse_formula "next[0,2] e()") (h4 ())));
    Alcotest.test_case "always" `Quick (fun () ->
        (* always[0,4] (not e()): pos0 (t0): states t0..t4: t2 has e -> F.
           pos1 (t2): t2 has e -> F. pos2 (t5): t5,t6: t6 has e -> F.
           pos3 (t6): t6 has e -> F. *)
        Alcotest.(check (list (pair int bool)))
          "vector"
          [ (0, false); (1, false); (2, false); (3, false) ]
          (future_verdicts cat (parse_formula "always[0,4] (not e())") (h4 ())));
    Alcotest.test_case "until with witness" `Quick (fun () ->
        (* (not e()) until[1,6] e() at pos0 (t0): witness e at t2, d2 in
           [1,6], not-e at k in [0, that): t0 ok -> T.
           pos2 (t5): witness t6 d1, not-e at t5 ok -> T. *)
        let v = future_verdicts cat (parse_formula "(not e()) until[1,6] e()") (h4 ()) in
        Alcotest.(check (pair int bool)) "pos0" (0, true) (List.nth v 0);
        Alcotest.(check (pair int bool)) "pos2" (2, true) (List.nth v 2));
    Alcotest.test_case "past and future mixed" `Quick (fun () ->
        (* once[0,2] e() -> eventually[1,4] e():
           pos0: premise F -> T. pos1 (t2): premise T (e now); witness e at
           t6 d4 -> T. pos2 (t5): premise: e at t2? d3 > 2... no e in
           [3,5] -> wait e at t2 distance 3 — premise F -> T.
           Actually once[0,2] at t5 looks at t>=3: t5 itself no e -> F
           premise -> T. pos3 (t6): premise T (e now); eventually[1,4]: no
           later state -> F. *)
        Alcotest.(check (list (pair int bool)))
          "vector"
          [ (0, true); (1, true); (2, true); (3, false) ]
          (future_verdicts cat
             (parse_formula "once[0,2] e() -> eventually[1,4] e()")
             (h4 ()))) ]

let admission_cases =
  [ Alcotest.test_case "rejects unbounded past" `Quick (fun () ->
        ignore
          (get_error "unbounded past"
             (Future.create cat
                { F.name = "c"; body = parse_formula "once e() -> true" })));
    Alcotest.test_case "rejects unbounded future via checker" `Quick (fun () ->
        (* an unbounded until cannot even be written with [l,inf]? It can.
           Verify it is rejected. *)
        ignore
          (get_error "unbounded future"
             (Future.create cat
                { F.name = "c"; body = parse_formula "e() until[0,inf] e()" })));
    Alcotest.test_case "incremental rejects future operators" `Quick (fun () ->
        ignore
          (get_error "future in past checker"
             (Incremental.create cat
                { F.name = "c"; body = parse_formula "eventually[0,3] e()" })));
    Alcotest.test_case "horizon computed" `Quick (fun () ->
        let st =
          get_ok "create"
            (Future.create cat
               { F.name = "c";
                 body = parse_formula "eventually[0,3] next[0,4] e()" })
        in
        Alcotest.(check int) "3+4" 7 (Future.horizon st)) ]

(* Agreement with the naive finite-trace semantics on random bounded
   formulas: every decided verdict matches, and after [finish] all
   positions are decided. *)
let agreement =
  qtest ~count:120 "future monitor = naive finite-trace semantics"
    QCheck.(pair small_nat small_nat)
    (fun (fseed, tseed) ->
      let f = Gen.random_bounded_future_formula ~seed:fseed ~depth:4 in
      let tr =
        Gen.random_trace ~seed:tseed { Gen.default_params with steps = 30 }
      in
      let h = get_ok "m" (Trace.materialize tr) in
      let expected =
        List.mapi (fun i b -> (i, b)) (naive_vector h f)
      in
      future_verdicts cat f h = expected)

(* The whole-trace pass: two constraints stepped together report exactly
   the naive violations, constraint by constraint in definition order. *)
let run_trace_agreement =
  qtest ~count:60 "run_trace = naive violations in definition order"
    QCheck.(triple small_nat small_nat small_nat)
    (fun (s1, s2, tseed) ->
      let def name seed =
        { F.name; body = Gen.random_bounded_future_formula ~seed ~depth:4 }
      in
      let defs = [ def "a" s1; def "b" s2 ] in
      let tr =
        Gen.random_trace ~seed:tseed { Gen.default_params with steps = 30 }
      in
      let h = get_ok "m" (Trace.materialize tr) in
      let expected =
        List.concat_map
          (fun (d : F.def) ->
            List.map
              (fun i -> (d.name, i, History.time h i))
              (get_ok "naive" (Naive.violations h d)))
          defs
      in
      let got =
        List.map
          (fun (r : Monitor.report) -> (r.constraint_name, r.position, r.time))
          (get_ok "run_trace" (Future.run_trace cat defs tr))
      in
      got = expected)

let buffer_bound =
  Alcotest.test_case "buffer stays within the window" `Quick (fun () ->
      let d =
        { F.name = "c";
          body = parse_formula "once[0,5] e() -> eventually[0,4] e()" }
      in
      let st = get_ok "create" (Future.create cat d) in
      let db = Database.create cat in
      let final =
        List.fold_left
          (fun st time ->
            let st, _ = get_ok "step" (Future.step st ~time db) in
            (* past 5 + horizon 4: at 1 tick per step at most ~11 states
               can be relevant at any point *)
            Alcotest.(check bool) "bounded buffer" true
              (Future.buffered_states st <= 12);
            st)
          st
          (List.init 300 (fun i -> i + 1))
      in
      Alcotest.(check int) "nothing pending at the end beyond horizon" 4
        (List.length (Future.finish final)))

let suite =
  [ ("future:semantics", semantics_cases);
    ("future:admission", admission_cases);
    ("future:agreement", [ agreement; run_trace_agreement ]);
    ("future:buffer", [ buffer_bound ]) ]
