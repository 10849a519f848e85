(* Parallel sharding (--jobs): a pooled run must be observationally
   identical to the sequential one — same reports, same error strings,
   same synced metrics document (modulo wall-clock latency) — and the
   pool itself must be a well-behaved fixed-size worker set. *)

open Helpers
module Shared = Rtic_core.Shared
module Pool = Rtic_core.Pool
module Metrics = Rtic_core.Metrics
module Supervisor = Rtic_core.Supervisor
module Faults = Rtic_core.Faults
module Wal = Rtic_core.Wal
module Json = Rtic_core.Json
module F = Formula

let cat = Gen.generic_catalog

let def name body = { F.name; body = parse_formula body }

let with_pool n f =
  let p = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Five constraints: two sharing once[0,30] p(x) (one sharing component),
   three with private subformulas — so a pooled Shared run really shards. *)
let mixed_defs =
  [ def "a" "forall x. q(x) -> once[0,30] p(x)";
    def "b" "forall x, y. r(x, y) -> once[0,30] p(x)";
    def "c" "forall x. q(x) -> once[0,11] p(x)";
    def "d" "forall x. q(x) -> once[0,12] p(x)";
    def "e" "forall x. q(x) -> once[0,13] p(x)" ]

let show_report r =
  Printf.sprintf "%s@%d/%d" r.Monitor.constraint_name r.Monitor.position
    r.Monitor.time

(* The one field allowed to differ between a sequential and a pooled run. *)
let scrub_latency = function
  | Json.Obj fields ->
    Json.Obj (List.filter (fun (k, _) -> k <> "latency_ns") fields)
  | j -> j

let metrics_doc run =
  let m = Metrics.create () in
  let reports = get_ok "run" (run m) in
  (List.map show_report reports, Json.to_string (scrub_latency (Metrics.to_json m)))

let pool_cases =
  [ Alcotest.test_case "create rejects size < 1" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
            ignore (Pool.create 0)));
    Alcotest.test_case "map_array over more items than workers" `Quick
      (fun () ->
        with_pool 3 (fun p ->
            let xs = Array.init 100 Fun.id in
            Alcotest.(check (array int))
              "squares"
              (Array.map (fun x -> x * x) xs)
              (Pool.map_array (fun x -> x * x) xs p)));
    Alcotest.test_case "size-1 pool is the sequential path" `Quick (fun () ->
        with_pool 1 (fun p ->
            Alcotest.(check int) "size" 1 (Pool.size p);
            Alcotest.(check (array int))
              "identity" [| 1; 2; 3 |]
              (Pool.map_array Fun.id [| 1; 2; 3 |] p)));
    Alcotest.test_case "lowest-index exception wins deterministically" `Quick
      (fun () ->
        with_pool 4 (fun p ->
            List.iter
              (fun _ ->
                match
                  Pool.run p
                    (Array.init 8 (fun i () ->
                         if i >= 2 then failwith (string_of_int i) else i))
                with
                | _ -> Alcotest.fail "expected an exception"
                | exception Failure m ->
                  Alcotest.(check string) "first failing task" "2" m)
              [ 1; 2; 3 ])) ]

let equality_cases =
  let traces =
    List.map
      (fun seed ->
        Gen.random_trace ~seed { Gen.default_params with steps = 60 })
      [ 3; 4; 5 ]
  in
  [ Alcotest.test_case "monitor: jobs N = sequential (reports + metrics)"
      `Quick (fun () ->
        List.iter
          (fun tr ->
            let seq =
              metrics_doc (fun m -> Monitor.run_trace ~metrics:m mixed_defs tr)
            in
            List.iter
              (fun jobs ->
                with_pool jobs (fun pool ->
                    let par =
                      metrics_doc (fun m ->
                          Monitor.run_trace ~metrics:m ~pool mixed_defs tr)
                    in
                    Alcotest.(check (pair (list string) string))
                      (Printf.sprintf "jobs %d" jobs)
                      seq par))
              [ 2; 4 ])
          traces);
    Alcotest.test_case "shared: jobs N = sequential (reports + metrics)"
      `Quick (fun () ->
        List.iter
          (fun tr ->
            let seq =
              metrics_doc (fun m -> Shared.run_trace ~metrics:m mixed_defs tr)
            in
            List.iter
              (fun jobs ->
                with_pool jobs (fun pool ->
                    let par =
                      metrics_doc (fun m ->
                          Shared.run_trace ~metrics:m ~pool mixed_defs tr)
                    in
                    Alcotest.(check (pair (list string) string))
                      (Printf.sprintf "jobs %d" jobs)
                      seq par))
              [ 2; 4 ])
          traces) ]

(* Random constraints, random traces: pooled and sequential runs agree on
   the full verdict stream for both engines. *)
let agreement_property =
  qtest ~count:40 "pooled run = sequential run on random batches"
    QCheck.(pair small_nat (oneofl [ 2; 4 ]))
    (fun (seed, jobs) ->
      let defs =
        List.mapi
          (fun i f -> { F.name = Printf.sprintf "c%d" i; body = f })
          (Gen.random_formulas ~seed ~depth:3 ~count:4)
      in
      let tr =
        Gen.random_trace ~seed:(seed + 77) { Gen.default_params with steps = 25 }
      in
      let show rs = List.map show_report rs in
      with_pool jobs (fun pool ->
          let mon_ok =
            match Monitor.run_trace defs tr, Monitor.run_trace ~pool defs tr with
            | Ok a, Ok b -> show a = show b
            | Error a, Error b -> a = b
            | _ -> false
          in
          let shared_ok =
            match Shared.run_trace defs tr, Shared.run_trace ~pool defs tr with
            | Ok a, Ok b -> show a = show b
            | Error a, Error b -> a = b
            | _ -> false
          in
          mon_ok && shared_ok))

(* The non-increasing-timestamp guard must use one error string across the
   sequential and sharded engines (the parallel-equality tests above
   compare error strings verbatim); the supervisor's clock-regression
   message is intentionally distinct — it names the policy-relevant event,
   not the kernel invariant. These pins fail loudly if either drifts. *)
let error_string_cases =
  let d = def "a" "forall x. q(x) -> once[0,5] p(x)" in
  let step2 step st =
    let st = fst (get_ok "step 1" (step st ~time:5)) in
    get_error "step 2" (step st ~time:5)
  in
  [ Alcotest.test_case "incremental and shared agree on the error string"
      `Quick (fun () ->
        let db = Database.create cat in
        let inc =
          step2
            (fun st ~time -> Incremental.step st ~time db)
            (get_ok "create" (Incremental.create cat d))
        in
        let shared =
          step2
            (fun m ~time -> Shared.step m ~time [])
            (get_ok "create" (Shared.create cat [ d ]))
        in
        Alcotest.(check string)
          "pinned" "non-increasing timestamp: 5 after 5" inc;
        Alcotest.(check string) "shared matches incremental" inc shared;
        with_pool 2 (fun pool ->
            let sharded =
              step2
                (fun m ~time -> Shared.step m ~time [])
                (get_ok "create" (Shared.create ~pool cat mixed_defs))
            in
            Alcotest.(check string) "sharded matches too" inc sharded));
    Alcotest.test_case "supervisor clock-regression string is pinned" `Quick
      (fun () ->
        let fs = Faults.mem_fs () in
        let sup =
          get_ok "create"
            (Supervisor.create ~fs ~state_dir:"s" cat [ d ])
        in
        ignore (get_ok "step 1" (Supervisor.step sup ~time:5 []));
        Alcotest.(check string)
          "pinned" "clock regression: time 5 after 5"
          (get_error "step 2" (Supervisor.step sup ~time:5 []))) ]

(* Supervised service under a pool: outcomes, quarantine decisions and
   recovery must match the sequential service exactly — also under the
   repair policy, whose rollback restores the pre-transaction monitor. *)
let supervised_cases =
  [ Alcotest.test_case "pooled supervisor = sequential supervisor" `Quick
      (fun () ->
        let sc = Scenarios.banking in
        let tr = sc.Scenarios.generate ~seed:9 ~steps:80 ~violation_rate:0.1 in
        let budget =
          { Supervisor.default_config with auto_checkpoint = 16;
            aux_budget = Some 40 }
        in
        List.iter
          (fun config ->
            let run pool =
              let fs = Faults.mem_fs () in
              let metrics = Metrics.create () in
              let sup =
                get_ok "create"
                  (Supervisor.create ~fs ~metrics ?pool ~config
                     ~init:tr.Trace.init ~state_dir:"s" sc.Scenarios.catalog
                     sc.Scenarios.constraints)
              in
              let outs =
                List.map
                  (fun (time, txn) ->
                    match get_ok "step" (Supervisor.step sup ~time txn) with
                    | Supervisor.Checked { reports; inconclusive } ->
                      Printf.sprintf "checked %s | %s"
                        (String.concat "," (List.map show_report reports))
                        (String.concat "," inconclusive)
                    | Supervisor.Skipped r -> "skipped " ^ r
                    | Supervisor.Rejected r -> "rejected " ^ r
                    | Supervisor.Repaired
                        { actions; repaired; inconclusive; _ } ->
                      Printf.sprintf "repaired %d %s | %s" (List.length actions)
                        (String.concat "," (List.map show_report repaired))
                        (String.concat "," inconclusive)
                    | Supervisor.Unrepairable { reports; unrepairable; _ } ->
                      Printf.sprintf "unrepairable %s | %s"
                        (String.concat "," (List.map show_report reports))
                        (String.concat "," (List.map fst unrepairable)))
                  tr.Trace.steps
              in
              let counters =
                List.map
                  (fun k -> (k, Metrics.counter metrics k))
                  [ "txns_repaired"; "constraints_quarantined" ]
              in
              ( outs,
                Supervisor.quarantined sup,
                Supervisor.steps sup,
                counters,
                fs )
            in
            let seq_outs, seq_q, seq_steps, seq_counters, _ = run None in
            if config.Supervisor.on_error = Supervisor.Repair
               && List.assoc "txns_repaired" seq_counters = 0
            then Alcotest.fail "the repair run repaired nothing";
            with_pool 2 (fun pool ->
                let par_outs, par_q, par_steps, par_counters, par_fs =
                  run (Some pool)
                in
                Alcotest.(check (list string)) "outcomes" seq_outs par_outs;
                Alcotest.(check (list (pair string string)))
                  "quarantine" seq_q par_q;
                Alcotest.(check int) "steps" seq_steps par_steps;
                Alcotest.(check (list (pair string int)))
                  "counters" seq_counters par_counters;
                (* And a pooled recovery of the pooled service replays to the
                   same state a sequential recovery reaches. *)
                let recover pool fs =
                  let sup, info =
                    get_ok "recover"
                      (Supervisor.recover ~fs ?pool ~config ~init:tr.Trace.init
                         ~repair:false ~state_dir:"s" sc.Scenarios.catalog
                         sc.Scenarios.constraints)
                  in
                  ( Supervisor.steps sup,
                    Supervisor.last_time sup,
                    Supervisor.space sup,
                    Supervisor.quarantined sup,
                    List.map show_report info.Supervisor.replay_reports )
                in
                let a = recover None par_fs in
                let b = recover (Some pool) par_fs in
                if a <> b then Alcotest.fail "pooled recovery diverged"))
          [ budget; { budget with on_error = Supervisor.Repair } ]) ]

(* WAL recovery must be linear in the number of records: the decoder used
   to recompute List.length per record, which made a 50k-record log take
   quadratic time. A quadratic decoder shows a ~100x blowup between 5k
   and 50k records; a linear one ~10x. The bound leaves a wide margin for
   noise. *)
let wal_cases =
  [ Alcotest.test_case "50k-record recovery is linear" `Slow (fun () ->
        let log n = Wal.encode ~start:0 (List.init n (fun i -> (i + 1, []))) in
        let time_recover text =
          let t0 = Unix.gettimeofday () in
          let w = get_ok "recover" (Wal.recover text) in
          let dt = Unix.gettimeofday () -. t0 in
          (List.length w.Wal.records, dt)
        in
        let small = log 5_000 and big = log 50_000 in
        ignore (time_recover small) (* warm-up *);
        let n_small, t_small = time_recover small in
        let n_big, t_big = time_recover big in
        Alcotest.(check int) "small decoded" 5_000 n_small;
        Alcotest.(check int) "big decoded" 50_000 n_big;
        let ratio = t_big /. Float.max t_small 1e-4 in
        if ratio > 40.0 then
          Alcotest.failf
            "10x more records cost %.0fx the time (%.3fs -> %.3fs): recovery \
             is no longer linear"
            ratio t_small t_big) ]

let suite =
  [ ("parallel:pool", pool_cases);
    ("parallel:equality", equality_cases);
    ("parallel:property", [ agreement_property ]);
    ("parallel:errors", error_string_cases);
    ("parallel:supervised", supervised_cases);
    ("parallel:wal", wal_cases) ]
