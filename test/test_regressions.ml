(* Regression pins for fixed performance and robustness bugs.

   The future monitor's state buffer used to be appended with [buffer @
   [entry]] (quadratic over a run), the scenario builders accumulated
   transactions the same way, and [Faults.real_fs.read_file] trusted
   [in_channel_length] and leaked its channel on error paths. Each fix
   gets a test that fails loudly if the bug comes back: the linearity
   tests time a 5k-element run against a 50k-element one — a linear
   implementation lands near 10x, a quadratic one near 100x, and the 40x
   bound leaves a wide margin for noise (same idiom as the WAL-recovery
   linearity test). *)

open Helpers
module Future = Rtic_core.Future
module Faults = Rtic_core.Faults

let cat = Gen.generic_catalog

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let check_linear what t_small t_big =
  let ratio = t_big /. Float.max t_small 1e-4 in
  if ratio > 40.0 then
    Alcotest.failf
      "10x more %s cost %.0fx the time (%.3fs -> %.3fs): no longer linear"
      what ratio t_small t_big

(* Every step lands inside the horizon, so nothing is ever decidable and
   the buffer grows to [n] states: exactly the regime where a quadratic
   append blows up. *)
let future_cases =
  [ Alcotest.test_case "50k-state buffer growth is linear" `Slow (fun () ->
        let d =
          { Formula.name = "f"; body = parse_formula "eventually[0,1000000] e()" }
        in
        let db = Database.create cat in
        let run n =
          let st = ref (get_ok "create" (Future.create cat d)) in
          for time = 1 to n do
            let st', verdicts = get_ok "step" (Future.step !st ~time db) in
            if verdicts <> [] then
              Alcotest.fail "no verdict should be decidable inside the horizon";
            st := st'
          done;
          Alcotest.(check int) "buffered" n (Future.buffered_states !st);
          Alcotest.(check int) "pending" n (Future.pending !st)
        in
        ignore (timed (fun () -> run 5_000)) (* warm-up *);
        let (), t_small = timed (fun () -> run 5_000) in
        let (), t_big = timed (fun () -> run 50_000) in
        check_linear "buffered states" t_small t_big) ]

(* [History.of_snapshots] (and with it [Trace.materialize] and every
   [Future.decide]) used to grow the history one [Array.append] at a time,
   copying the whole array per snapshot. *)
let history_cases =
  [ Alcotest.test_case "50k-snapshot history construction is linear" `Slow
      (fun () ->
        let db = Database.create cat in
        let run n =
          let h =
            get_ok "of_snapshots"
              (History.of_snapshots (List.init n (fun t -> (t, db))))
          in
          Alcotest.(check int) "length" n (History.length h)
        in
        ignore (timed (fun () -> run 5_000)) (* warm-up *);
        let (), t_small = timed (fun () -> run 5_000) in
        let (), t_big = timed (fun () -> run 50_000) in
        check_linear "snapshots" t_small t_big) ]

(* The check path over a spec mixing past and bounded-future constraints:
   the past constraints through [Monitor.run_trace], the future one through
   [Future.run_trace]. Before the single-pass [Future.run_trace], checking
   materialised the whole history first, one array copy per transaction. *)
let check_path_cases =
  [ Alcotest.test_case "50k-txn past+future check is linear" `Slow
      (fun () ->
        (* One cheap constraint of each kind, so that per-txn checking does
           not drown a quadratic term at 5k txns. *)
        let sc = Scenarios.monitoring in
        let past =
          { Formula.name = "alarm_has_fault";
            body = parse_formula "forall i. alarm(i) -> once[0,30] fault(i)" }
        in
        let future =
          { Formula.name = "fault_alarmed";
            body = parse_formula "forall i. fault(i) -> eventually[0,8] alarm(i)" }
        in
        let trace steps =
          sc.Scenarios.generate ~seed:5 ~steps ~violation_rate:0.1
        in
        let run tr =
          let past = get_ok "past" (Monitor.run_trace [ past ] tr) in
          let fut =
            get_ok "future"
              (Future.run_trace sc.Scenarios.catalog [ future ] tr)
          in
          Alcotest.(check bool) "violations found" true
            (past <> [] && fut <> [])
        in
        let small = trace 5_000 and big = trace 50_000 in
        ignore (timed (fun () -> run small)) (* warm-up *);
        let (), t_small = timed (fun () -> run small) in
        let (), t_big = timed (fun () -> run big) in
        check_linear "checked transactions" t_small t_big) ]

let scenario_cases =
  [ Alcotest.test_case "50k-step workload generation is linear" `Slow
      (fun () ->
        let sc = Scenarios.banking in
        let run steps =
          let tr = sc.Scenarios.generate ~seed:5 ~steps ~violation_rate:0.1 in
          Alcotest.(check int) "steps" steps (List.length tr.Trace.steps)
        in
        ignore (timed (fun () -> run 5_000)) (* warm-up *);
        let (), t_small = timed (fun () -> run 5_000) in
        let (), t_big = timed (fun () -> run 50_000) in
        check_linear "workload steps" t_small t_big);
    Alcotest.test_case "50k-step library generation is linear" `Slow
      (fun () ->
        (* the library builder draws a random lendable book per borrow;
           a List.nth + List.length pair there made the draw scan the
           candidate list twice per step *)
        let sc = Scenarios.library in
        let run steps =
          let tr = sc.Scenarios.generate ~seed:5 ~steps ~violation_rate:0.1 in
          Alcotest.(check int) "steps" steps (List.length tr.Trace.steps)
        in
        ignore (timed (fun () -> run 5_000)) (* warm-up *);
        let (), t_small = timed (fun () -> run 5_000) in
        let (), t_big = timed (fun () -> run 50_000) in
        check_linear "library steps" t_small t_big) ]

(* [mem_fs.append_file] used to rebuild the whole file as a fresh string
   per append (read + concatenate + store), so appending n records cost
   O(n^2) bytes copied — exactly the WAL append path the chaos and soak
   sweeps hammer. The Buffer-backed store makes each append amortized
   O(record). *)
let mem_fs_cases =
  [ Alcotest.test_case "50k mem_fs appends are linear" `Slow (fun () ->
        let run n =
          let fs = Faults.mem_fs () in
          get_ok "create" (fs.Faults.write_file "log" "");
          for i = 1 to n do
            get_ok "append"
              (fs.Faults.append_file "log" (Printf.sprintf "record %d\n" i))
          done;
          Alcotest.(check bool) "content present" true
            (String.length (get_ok "read" (fs.Faults.read_file "log")) > n)
        in
        ignore (timed (fun () -> run 5_000)) (* warm-up *);
        let (), t_small = timed (fun () -> run 5_000) in
        let (), t_big = timed (fun () -> run 50_000) in
        check_linear "appended records" t_small t_big) ]

let read_file_cases =
  [ Alcotest.test_case "missing file is an Error, not an exception" `Quick
      (fun () ->
        ignore
          (get_error "missing"
             (Faults.(real_fs.read_file) "no-such-file-anywhere.spec")));
    Alcotest.test_case "directory reads error without leaking channels"
      `Quick (fun () ->
        (* hundreds of failed reads: a leaked fd per failure exhausts the
           default descriptor limit well within this loop *)
        for _ = 1 to 512 do
          ignore (get_error "directory" (Faults.(real_fs.read_file) "."))
        done);
    Alcotest.test_case "special files with length 0 read to end-of-file"
      `Quick (fun () ->
        (* /proc files report size 0; a length-based read returns "" *)
        let path = "/proc/self/cmdline" in
        if Sys.file_exists path then
          Alcotest.(check bool)
            "non-empty" true
            (String.length (get_ok "cmdline" (Faults.(real_fs.read_file) path))
             > 0)) ]

(* The algebra executor used to evaluate [Join] with a nested loop: joining
   two n-row relations on a shared key cost n^2 comparisons. The hash join
   builds an index on the smaller side, so an n-to-n equi-join is
   n log n. *)
let join_cases =
  [ Alcotest.test_case "50k-row equi-join is near-linear" `Slow (fun () ->
        let db = Database.create cat in
        let rel n =
          Relation.of_list 1 (List.init n (fun i -> [| Value.Int i |]))
        in
        let run (a, b) =
          let r =
            get_ok "join"
              (Algebra.eval db (Algebra.Join ([ (0, 0) ], Const a, Const b)))
          in
          Alcotest.(check int) "rows" (Relation.cardinal a)
            (Relation.cardinal r)
        in
        let small = (rel 5_000, rel 5_000) in
        let big = (rel 50_000, rel 50_000) in
        ignore (timed (fun () -> run small)) (* warm-up *);
        let (), t_small = timed (fun () -> run small) in
        let (), t_big = timed (fun () -> run big) in
        check_linear "joined rows" t_small t_big) ]

(* Window pruning used to [filter] every row's full timestamp set on every
   step. With one hot row and a window wide enough that nothing expires,
   that filter alone made a run quadratic; the [split]-based prune with its
   min-element fast path leaves each no-op step at O(log n). *)
let prune_cases =
  [ Alcotest.test_case "50k-step wide-window monitoring is linear" `Slow
      (fun () ->
        let d =
          { Formula.name = "w";
            body = parse_formula "exists x. once[0,100000000] p(x)" }
        in
        let db =
          get_ok "ins"
            (Database.insert (Database.create cat) "p"
               (Tuple.make [ Value.Int 0 ]))
        in
        let run n =
          let st = ref (get_ok "create" (Incremental.create cat d)) in
          for time = 1 to n do
            let st', v = get_ok "step" (Incremental.step !st ~time db) in
            if not v.Incremental.satisfied then
              Alcotest.fail "p(0) holds at every step";
            st := st'
          done
        in
        ignore (timed (fun () -> run 5_000)) (* warm-up *);
        let (), t_small = timed (fun () -> run 5_000) in
        let (), t_big = timed (fun () -> run 50_000) in
        check_linear "monitored steps" t_small t_big) ]

(* Compiling a conjunction used to look each shared column up with a linear
   [index_of] scan per column — quadratic in the schema width. The position
   tables keep wide-schema compilation near-linear. *)
let wide_schema_cases =
  let vars k = List.init k (fun i -> "x" ^ string_of_int i) in
  [ Alcotest.test_case "2000-column join compiles in near-linear time" `Slow
      (fun () ->
        let compile k =
          let attrs = List.map (fun v -> (v, Value.TInt)) (vars k) in
          let wide_cat =
            Schema.Catalog.of_list
              [ Schema.make "w1" attrs; Schema.make "w2" attrs ]
          in
          let args = List.map (fun v -> Formula.Var v) (vars k) in
          let f = Formula.And (Atom ("w1", args), Atom ("w2", args)) in
          let c = get_ok "compile" (Rtic_eval.Codd.compile wide_cat f) in
          Alcotest.(check int) "cols" k (List.length c.Rtic_eval.Codd.columns)
        in
        ignore (timed (fun () -> compile 200)) (* warm-up *);
        let (), t_small = timed (fun () -> compile 200) in
        let (), t_big = timed (fun () -> compile 2_000) in
        check_linear "schema columns" t_small t_big);
    Alcotest.test_case "5000-column valuation build is near-linear" `Slow
      (fun () ->
        let build k =
          let row = Tuple.make (List.init k (fun i -> Value.Int i)) in
          let vr = Valrel.make (vars k) (List.init 50 (fun _ -> row)) in
          Alcotest.(check int) "rows" 1 (List.length (Valrel.rows vr))
        in
        ignore (timed (fun () -> build 500)) (* warm-up *);
        let (), t_small = timed (fun () -> build 500) in
        let (), t_big = timed (fun () -> build 5_000) in
        check_linear "valuation columns" t_small t_big) ]

let suite =
  [ ("regressions:future-buffer", future_cases);
    ("regressions:history", history_cases);
    ("regressions:check-path", check_path_cases);
    ("regressions:scenarios", scenario_cases);
    ("regressions:hash-join", join_cases);
    ("regressions:window-prune", prune_cases);
    ("regressions:wide-schema", wide_schema_cases);
    ("regressions:mem-fs", mem_fs_cases);
    ("regressions:read-file", read_file_cases) ]
