(* The resilience layer: WAL format, crash-safe supervision, recovery,
   error policies, quarantine, injected write failures, and the chaos
   property — for every crash point and fault plan, recover-and-replay is
   observationally identical to never having crashed. *)

open Helpers
module Supervisor = Rtic_core.Supervisor
module Faults = Rtic_core.Faults
module Wal = Rtic_core.Wal
module Metrics = Rtic_core.Metrics
module Chaos = Rtic_workload.Chaos
module F = Formula

let cat = Gen.generic_catalog
let def name body = { F.name; body = parse_formula body }

let txn_p v = [ Update.insert "p" [ Value.Int v ] ]
let txn_q v = [ Update.insert "q" [ Value.Int v ] ]

let cfg ?(auto = 0) ?(retain = 2) ?(policy = Supervisor.Halt) ?budget
    ?(group = 1) ?(wal = 1) () =
  { Supervisor.default_config with
    auto_checkpoint = auto;
    retain;
    on_error = policy;
    aux_budget = budget;
    group_commit = group;
    wal_format = wal }

let sup_exn what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

(* (reports, inconclusive) of an outcome that must be Checked *)
let checked what = function
  | Supervisor.Checked { reports; inconclusive } -> (reports, inconclusive)
  | Supervisor.Skipped r -> Alcotest.failf "%s: unexpectedly skipped (%s)" what r
  | Supervisor.Rejected r -> Alcotest.failf "%s: unexpectedly rejected (%s)" what r
  | Supervisor.Repaired _ -> Alcotest.failf "%s: unexpectedly repaired" what
  | Supervisor.Unrepairable _ ->
    Alcotest.failf "%s: unexpectedly unrepairable" what

(* ---------------- WAL format ---------------- *)

let sample_records =
  [ (1, txn_p 1); (4, txn_q 2); (9, [ Update.delete "p" [ Value.Int 1 ] ]) ]

let wal_cases =
  [ Alcotest.test_case "encode/recover roundtrip" `Quick (fun () ->
        let text = Wal.encode ~start:5 sample_records in
        let w = sup_exn "recover" (Wal.recover text) in
        Alcotest.(check int) "start" 5 w.Wal.start;
        Alcotest.(check bool) "records" true (w.Wal.records = sample_records);
        Alcotest.(check bool) "clean" true (w.Wal.torn = None));
    Alcotest.test_case "empty log roundtrip" `Quick (fun () ->
        let w = sup_exn "recover" (Wal.recover (Wal.encode ~start:0 [])) in
        Alcotest.(check bool) "empty" true (w.Wal.records = [] && w.Wal.torn = None));
    Alcotest.test_case "file not ending in newline drops last record" `Quick
      (fun () ->
        let text = Wal.encode ~start:0 sample_records in
        let torn = String.sub text 0 (String.length text - 1) in
        let w = sup_exn "recover" (Wal.recover torn) in
        Alcotest.(check int) "valid prefix" 2 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None));
    Alcotest.test_case "bit flip in a record fails its CRC" `Quick (fun () ->
        let text = Wal.encode ~start:0 sample_records in
        (* Flip a byte inside the last record's op line. *)
        let b = Bytes.of_string text in
        let pos = String.length text - 3 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        let w = sup_exn "recover" (Wal.recover (Bytes.to_string b)) in
        Alcotest.(check int) "valid prefix" 2 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None));
    Alcotest.test_case "header damage is a hard error" `Quick (fun () ->
        let text = Wal.encode ~start:0 sample_records in
        let bad = "xtic" ^ String.sub text 4 (String.length text - 4) in
        Alcotest.(check bool) "error" true (Result.is_error (Wal.recover bad)));
    Alcotest.test_case "non-increasing commit time truncates" `Quick (fun () ->
        let text = Wal.encode ~start:0 [ (5, txn_p 1); (5, txn_p 2) ] in
        let w = sup_exn "recover" (Wal.recover text) in
        Alcotest.(check int) "valid prefix" 1 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None)) ]

(* ---------------- rtic-wal/2: binary frames ---------------- *)

(* The corrupted-file corpus for the v2 decoder: every way an append can
   tear or rot, each yielding the valid prefix plus a torn report — and
   the mixed-header cases, where the header's format wins and the
   mismatched records are a torn tail, never a hard error. *)
let wal2_cases =
  let encode2 = Wal.encode ~version:2 in
  let body_of text =
    (* strip the two-line text header, keeping the binary frames *)
    let i = String.index_from text (String.index text '\n' + 1) '\n' + 1 in
    (String.sub text 0 i, String.sub text i (String.length text - i))
  in
  [ Alcotest.test_case "v2 encode/recover roundtrip" `Quick (fun () ->
        let text = encode2 ~start:5 sample_records in
        let w = sup_exn "recover" (Wal.recover text) in
        Alcotest.(check int) "start" 5 w.Wal.start;
        Alcotest.(check int) "version" 2 w.Wal.version;
        Alcotest.(check bool) "records" true (w.Wal.records = sample_records);
        Alcotest.(check bool) "clean" true (w.Wal.torn = None));
    Alcotest.test_case "v2 record CRC equals the v1 record CRC" `Quick
      (fun () ->
        (* same body bytes, same checksum: the lossless-conversion claim *)
        let v1 = Wal.encode_record ~time:7 (txn_p 3) in
        let v2 = Wal.encode_record ~version:2 ~time:7 (txn_p 3) in
        let crc_of_v1 =
          match String.split_on_char ' ' (List.hd (String.split_on_char '\n' v1)) with
          | [ "txn"; _; _; crc ] -> int_of_string ("0x" ^ crc)
          | _ -> Alcotest.fail "unexpected v1 record header"
        in
        let crc_of_v2 =
          let b i = Char.code v2.[4 + i] in
          b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
        in
        Alcotest.(check int) "crc" crc_of_v1 crc_of_v2);
    Alcotest.test_case "torn length prefix drops the last record" `Quick
      (fun () ->
        let text = encode2 ~start:0 sample_records in
        let last = Wal.encode_record ~version:2 ~time:9
            [ Update.delete "p" [ Value.Int 1 ] ] in
        (* keep 3 bytes of the final frame: mid length-prefix *)
        let torn =
          String.sub text 0 (String.length text - String.length last + 3)
        in
        let w = sup_exn "recover" (Wal.recover torn) in
        Alcotest.(check int) "valid prefix" 2 (List.length w.Wal.records);
        (match w.Wal.torn with
         | Some r ->
           Alcotest.(check bool) "names the tear" true
             (String.length r > 0)
         | None -> Alcotest.fail "torn tail not reported"));
    Alcotest.test_case "torn body drops the last record" `Quick (fun () ->
        let text = encode2 ~start:0 sample_records in
        let torn = String.sub text 0 (String.length text - 2) in
        let w = sup_exn "recover" (Wal.recover torn) in
        Alcotest.(check int) "valid prefix" 2 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None));
    Alcotest.test_case "flipped CRC byte fails that record" `Quick (fun () ->
        let text = encode2 ~start:0 sample_records in
        let last = Wal.encode_record ~version:2 ~time:9
            [ Update.delete "p" [ Value.Int 1 ] ] in
        (* flip a byte inside the last frame's stored CRC field *)
        let pos = String.length text - String.length last + 5 in
        let b = Bytes.of_string text in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
        let w = sup_exn "recover" (Wal.recover (Bytes.to_string b)) in
        Alcotest.(check int) "valid prefix" 2 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None));
    Alcotest.test_case "v1 header over v2 frames tears at the first frame"
      `Quick (fun () ->
        let _, frames = body_of (encode2 ~start:0 sample_records) in
        let mixed = Wal.header ~start:0 () ^ frames in
        let w = sup_exn "recover" (Wal.recover mixed) in
        Alcotest.(check int) "declared format wins" 1 w.Wal.version;
        Alcotest.(check int) "no records" 0 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None));
    Alcotest.test_case "v2 header over v1 records tears at the first frame"
      `Quick (fun () ->
        let _, lines = body_of (Wal.encode ~start:0 sample_records) in
        let mixed = Wal.header ~version:2 ~start:0 () ^ lines in
        let w = sup_exn "recover" (Wal.recover mixed) in
        Alcotest.(check int) "declared format wins" 2 w.Wal.version;
        Alcotest.(check int) "no records" 0 (List.length w.Wal.records);
        Alcotest.(check bool) "torn reported" true (w.Wal.torn <> None));
    (let record_gen =
       QCheck.Gen.(
         let op =
           oneof
             [ map (fun v -> Update.insert "p" [ Value.Int v ]) (int_range 0 99);
               map (fun v -> Update.delete "p" [ Value.Int v ]) (int_range 0 99);
               map (fun v -> Update.insert "q" [ Value.Int v ]) (int_range 0 99) ]
         in
         let txn = list_size (int_range 1 3) op in
         map
           (fun steps ->
             let _, recs =
               List.fold_left
                 (fun (t, acc) (dt, txn) -> (t + dt, (t + dt, txn) :: acc))
                 (0, []) steps
             in
             List.rev recs)
           (list_size (int_range 0 12) (pair (int_range 1 5) txn)))
     in
     qtest "both formats: recover (encode records) = records"
       (QCheck.make record_gen) (fun records ->
         List.for_all
           (fun version ->
             match Wal.recover (Wal.encode ~version ~start:2 records) with
             | Ok w ->
               w.Wal.start = 2 && w.Wal.version = version
               && w.Wal.records = records && w.Wal.torn = None
             | Error _ -> false)
           [ 1; 2 ])) ]

(* ---------------- Supervisor lifecycle ---------------- *)

let defaults = [ def "c1" "forall x. q(x) -> once[0,10] p(x)" ]

let fresh ?(config = cfg ()) ?(defs = defaults) () =
  let fs = Faults.mem_fs () in
  let sup =
    sup_exn "create" (Supervisor.create ~fs ~config ~state_dir:"sd" cat defs)
  in
  (fs, sup)

let lifecycle_cases =
  [ Alcotest.test_case "create writes checkpoint 0 and the WAL header" `Quick
      (fun () ->
        let fs, _ = fresh () in
        Alcotest.(check bool) "state exists" true (Supervisor.state_exists fs "sd");
        Alcotest.(check (list int)) "checkpoints" [ 0 ]
          (List.map fst (Supervisor.checkpoint_files fs "sd"));
        Alcotest.(check string) "wal is a bare header" (Wal.header ~start:0 ())
          (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))));
    Alcotest.test_case "create refuses an existing state dir" `Quick (fun () ->
        let fs, _ = fresh () in
        Alcotest.(check bool) "refused" true
          (Result.is_error
             (Supervisor.create ~fs ~config:(cfg ()) ~state_dir:"sd" cat
                defaults)));
    Alcotest.test_case "auto-checkpoint, retention and compaction" `Quick
      (fun () ->
        let fs, sup = fresh ~config:(cfg ~auto:2 ~retain:2 ()) () in
        List.iteri
          (fun i v ->
            ignore
              (checked "step" (sup_exn "step" (Supervisor.step sup ~time:(i + 1) (txn_p v)))))
          [ 1; 2; 3; 4; 5 ];
        Alcotest.(check (list int)) "newest two retained" [ 4; 2 ]
          (List.map fst (Supervisor.checkpoint_files fs "sd"));
        let w =
          sup_exn "recover wal"
            (Wal.recover (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))))
        in
        Alcotest.(check int) "wal compacted to oldest retained" 2 w.Wal.start;
        Alcotest.(check int) "wal covers up to accepted" 5
          (w.Wal.start + List.length w.Wal.records));
    Alcotest.test_case "violations are reported as by Monitor" `Quick (fun () ->
        let _, sup = fresh () in
        let reports, _ = checked "q" (sup_exn "step" (Supervisor.step sup ~time:1 (txn_q 9))) in
        (match reports with
         | [ r ] ->
           Alcotest.(check string) "name" "c1" r.Monitor.constraint_name;
           Alcotest.(check int) "position" 0 r.Monitor.position
         | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
        let reports, _ = checked "p" (sup_exn "step" (Supervisor.step sup ~time:2 (txn_p 9))) in
        Alcotest.(check int) "no report" 0 (List.length reports)) ]

(* ---------------- Recovery ---------------- *)

let feed_all sup inputs =
  List.map
    (fun (time, txn) -> sup_exn "step" (Supervisor.step sup ~time txn))
    inputs

let recovery_cases =
  [ Alcotest.test_case "rejected checkpoints register no node gauges" `Quick
      (fun () ->
        (* c1 loads from the checkpoint before c2's changed window rejects
           it; recovery then rebuilds both from the WAL *)
        let defs w =
          [ def "c1" "forall x. q(x) -> once[0,10] p(x)";
            def "c2" (Printf.sprintf "forall x. p(x) -> once[0,%d] q(x)" w) ]
        in
        let fs, sup = fresh ~defs:(defs 5) () in
        ignore (feed_all sup [ (1, txn_p 1); (2, txn_q 1) ]);
        let m = Metrics.create () in
        let _, info =
          sup_exn "recover"
            (Supervisor.recover ~fs ~metrics:m ~state_dir:"sd" cat (defs 6))
        in
        Alcotest.(check int) "checkpoint skipped" 1
          (List.length info.Supervisor.checkpoints_skipped);
        let expected = Metrics.create () in
        ignore (sup_exn "create" (Monitor.create ~metrics:expected cat (defs 6)));
        let names m = List.map (fun n -> n.Metrics.name) (Metrics.nodes m) in
        Alcotest.(check (list string)) "one row per node" (names expected)
          (names m));
    Alcotest.test_case "recover after a clean kill loses nothing" `Quick
      (fun () ->
        let fs, sup = fresh ~config:(cfg ~auto:2 ()) () in
        ignore (feed_all sup [ (1, txn_p 1); (2, txn_p 2); (3, txn_q 1) ]);
        (* crash: abandon sup *)
        let sup2, info =
          sup_exn "recover"
            (Supervisor.recover ~fs ~config:(cfg ~auto:2 ()) ~state_dir:"sd"
               cat defaults)
        in
        Alcotest.(check int) "all transactions recovered" 3
          (Supervisor.steps sup2);
        Alcotest.(check bool) "used a checkpoint" true
          (info.Supervisor.checkpoint_step = Some 2);
        Alcotest.(check int) "replayed the suffix" 1 info.Supervisor.replayed;
        Alcotest.(check bool) "last_time restored" true
          (Supervisor.last_time sup2 = Some 3);
        (* the recovered service keeps going *)
        let reports, _ = checked "next" (sup_exn "step" (Supervisor.step sup2 ~time:9 (txn_q 5))) in
        Alcotest.(check int) "violation detected after recovery" 1
          (List.length reports));
    Alcotest.test_case "recover refuses a directory with no WAL" `Quick
      (fun () ->
        let fs = Faults.mem_fs () in
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Supervisor.recover ~fs ~config:(cfg ()) ~state_dir:"nowhere" cat
                defaults)));
    Alcotest.test_case "corrupt newest checkpoint falls back to older" `Quick
      (fun () ->
        let fs, sup = fresh ~config:(cfg ~auto:2 ~retain:2 ()) () in
        ignore (feed_all sup (List.init 5 (fun i -> (i + 1, txn_p i))));
        let newest =
          match Supervisor.checkpoint_files fs "sd" with
          | (_, p) :: _ -> p
          | [] -> Alcotest.fail "no checkpoints"
        in
        ignore (sup_exn "flip" (Faults.bit_flip_file fs ~seed:11 newest));
        let sup2, info =
          sup_exn "recover"
            (Supervisor.recover ~fs ~config:(cfg ~auto:2 ~retain:2 ())
               ~state_dir:"sd" cat defaults)
        in
        Alcotest.(check int) "skipped the corrupt one" 1
          (List.length info.Supervisor.checkpoints_skipped);
        Alcotest.(check bool) "fell back" true
          (info.Supervisor.checkpoint_step = Some 2);
        Alcotest.(check int) "still recovered everything" 5
          (Supervisor.steps sup2));
    Alcotest.test_case "torn WAL tail is repaired on recovery" `Quick (fun () ->
        let fs, sup = fresh ~config:(cfg ~auto:0 ()) () in
        ignore (feed_all sup [ (1, txn_p 1); (2, txn_p 2) ]);
        (* simulate a torn final append *)
        ignore
          (sup_exn "append" (fs.Faults.append_file (Supervisor.wal_path "sd") "txn 3 1"));
        let sup2, info =
          sup_exn "recover"
            (Supervisor.recover ~fs ~config:(cfg ()) ~state_dir:"sd" cat
               defaults)
        in
        Alcotest.(check bool) "torn tail reported" true
          (info.Supervisor.torn_tail <> None);
        Alcotest.(check bool) "repaired" true info.Supervisor.repaired;
        Alcotest.(check bool) "not degraded after repair" false
          (Supervisor.degraded sup2);
        Alcotest.(check int) "both records kept" 2 (Supervisor.steps sup2);
        let w =
          sup_exn "recover wal"
            (Wal.recover (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))))
        in
        Alcotest.(check bool) "wal clean again" true (w.Wal.torn = None));
    Alcotest.test_case "plain --save-state checkpoint (no trailer) loads" `Quick
      (fun () ->
        let fs = Faults.mem_fs () in
        ignore (fs.Faults.mkdir "sd");
        let mon = sup_exn "mon" (Monitor.create cat defaults) in
        ignore
          (fs.Faults.write_file (Supervisor.checkpoint_path "sd" 0)
             (Monitor.to_text mon));
        let snap =
          sup_exn "load"
            (Supervisor.load_checkpoint ~fs cat defaults
               (Supervisor.checkpoint_path "sd" 0))
        in
        Alcotest.(check int) "step from filename" 0 snap.Supervisor.snap_step) ]

(* ---------------- Error policies ---------------- *)

let policy_cases =
  [ Alcotest.test_case "halt: clock regression stops the service" `Quick
      (fun () ->
        let _, sup = fresh ~config:(cfg ~policy:Supervisor.Halt ()) () in
        ignore (feed_all sup [ (5, txn_p 1) ]);
        Alcotest.(check bool) "error" true
          (Result.is_error (Supervisor.step sup ~time:5 (txn_p 2))));
    Alcotest.test_case "skip/reject: dropped, counted, not logged" `Quick
      (fun () ->
        List.iter
          (fun policy ->
            let m = Metrics.create () in
            let fs = Faults.mem_fs () in
            let sup =
              sup_exn "create"
                (Supervisor.create ~fs ~metrics:m ~config:(cfg ~policy ())
                   ~state_dir:"sd" cat defaults)
            in
            ignore (feed_all sup [ (5, txn_p 1) ]);
            let wal_before =
              sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))
            in
            let o = sup_exn "step" (Supervisor.step sup ~time:4 (txn_p 2)) in
            (match (policy, o) with
             | Supervisor.Skip, Supervisor.Skipped _
             | Supervisor.Reject, Supervisor.Rejected _ -> ()
             | _ -> Alcotest.fail "wrong outcome for the policy");
            let o2 = sup_exn "step" (Supervisor.step sup ~time:5 (txn_q 3)) in
            (match o2 with
             | Supervisor.Skipped _ | Supervisor.Rejected _ -> ()
             | _ ->
               Alcotest.fail "time 5 repeats the last accepted time");
            Alcotest.(check string) "wal unchanged" wal_before
              (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd")));
            Alcotest.(check int) "accepted count unchanged" 1
              (Supervisor.steps sup);
            Alcotest.(check int) "clock regressions counted" 2
              (Metrics.counter m "clock_regressions"))
          [ Supervisor.Skip; Supervisor.Reject ]);
    Alcotest.test_case "malformed transaction takes the policy path" `Quick
      (fun () ->
        let m = Metrics.create () in
        let fs = Faults.mem_fs () in
        let sup =
          sup_exn "create"
            (Supervisor.create ~fs ~metrics:m
               ~config:(cfg ~policy:Supervisor.Reject ()) ~state_dir:"sd" cat
               defaults)
        in
        let bad = [ Update.insert "nosuch" [ Value.Int 1 ] ] in
        (match sup_exn "step" (Supervisor.step sup ~time:1 bad) with
         | Supervisor.Rejected _ -> ()
         | _ -> Alcotest.fail "expected Rejected");
        Alcotest.(check int) "counted" 1 (Metrics.counter m "malformed_txns");
        (* the service is unharmed *)
        ignore (checked "ok" (sup_exn "step" (Supervisor.step sup ~time:2 (txn_p 1))))) ]

(* ---------------- Quarantine ---------------- *)

(* `once p(x)` stores one minimal timestamp per distinct p value, so its
   space tracks the number of values ever inserted; the non-temporal
   constraint stores nothing. Feeding distinct p values separates them. *)
let quarantine_defs =
  [ def "unbounded" "forall x. q(x) -> once p(x)";
    def "pointwise" "forall x. q(x) -> p(x)" ]

let quarantine_cases =
  [ Alcotest.test_case "over-budget constraint is quarantined, rest continue"
      `Quick (fun () ->
        let m = Metrics.create () in
        let fs = Faults.mem_fs () in
        let config = cfg ~budget:15 () in
        let sup =
          sup_exn "create"
            (Supervisor.create ~fs ~metrics:m ~config ~state_dir:"sd" cat
               quarantine_defs)
        in
        (* Distinct p values grow `once p(x)` without bound. *)
        let rec grow i =
          if Supervisor.quarantined sup = [] && i < 50 then begin
            ignore (checked "grow" (sup_exn "grow" (Supervisor.step sup ~time:i (txn_p i))));
            grow (i + 1)
          end
          else i
        in
        let n = grow 1 in
        Alcotest.(check bool) "quarantined before 50 steps" true (n < 50);
        (match Supervisor.quarantined sup with
         | [ (name, _) ] -> Alcotest.(check string) "which" "unbounded" name
         | q -> Alcotest.failf "expected one quarantined, got %d" (List.length q));
        Alcotest.(check int) "counted" 1
          (Metrics.counter m "constraints_quarantined");
        (* The frozen constraint reports inconclusive; the live one still
           yields real verdicts (here: a violation). *)
        let reports, inconclusive =
          checked "after" (sup_exn "after" (Supervisor.step sup ~time:(n + 1) (txn_q 999)))
        in
        Alcotest.(check (list string)) "inconclusive" [ "unbounded" ]
          inconclusive;
        (match reports with
         | [ r ] -> Alcotest.(check string) "live verdict" "pointwise" r.Monitor.constraint_name
         | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)));
    Alcotest.test_case "quarantine is re-derived after recovery" `Quick
      (fun () ->
        let fs = Faults.mem_fs () in
        let config = cfg ~auto:2 ~budget:15 () in
        let sup =
          sup_exn "create"
            (Supervisor.create ~fs ~config ~state_dir:"sd" cat quarantine_defs)
        in
        List.iter
          (fun i -> ignore (sup_exn "feed" (Supervisor.step sup ~time:i (txn_p i))))
          (List.init 20 (fun i -> i + 1));
        let q_before = List.map fst (Supervisor.quarantined sup) in
        Alcotest.(check (list string)) "quarantined live" [ "unbounded" ] q_before;
        let sup2, _ =
          sup_exn "recover"
            (Supervisor.recover ~fs ~config ~state_dir:"sd" cat quarantine_defs)
        in
        Alcotest.(check (list string)) "same set after recovery" q_before
          (List.map fst (Supervisor.quarantined sup2))) ]

(* ---------------- Group commit ---------------- *)

let group_cases =
  [ Alcotest.test_case "acks defer until the batch fills" `Quick (fun () ->
        let _, sup = fresh ~config:(cfg ~group:3 ()) () in
        let submit time txn = sup_exn "submit" (Supervisor.submit sup ~time txn) in
        Alcotest.(check int) "first ack deferred" 0
          (List.length (submit 1 (txn_p 1)));
        Alcotest.(check int) "second ack deferred" 0
          (List.length (submit 2 (txn_p 2)));
        Alcotest.(check int) "buffered records" 2
          (Supervisor.pending_records sup);
        Alcotest.(check int) "buffered outcomes" 2
          (Supervisor.pending_outcomes sup);
        let released = submit 3 (txn_q 99) in
        Alcotest.(check int) "third submit flushes the batch" 3
          (List.length released);
        Alcotest.(check int) "queue drained" 0 (Supervisor.pending_records sup);
        (* FIFO: the violation (q with no once p) is the last outcome *)
        (match List.rev released with
         | last :: _ ->
           let reports, _ = checked "last" last in
           Alcotest.(check int) "release order is submission order" 1
             (List.length reports)
         | [] -> Alcotest.fail "no outcomes"));
    Alcotest.test_case "flush releases a partial batch" `Quick (fun () ->
        let fs, sup = fresh ~config:(cfg ~group:4 ()) () in
        ignore (sup_exn "submit" (Supervisor.submit sup ~time:1 (txn_p 1)));
        ignore (sup_exn "submit" (Supervisor.submit sup ~time:2 (txn_p 2)));
        let wal_before =
          sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))
        in
        let released = Supervisor.flush sup in
        Alcotest.(check int) "both acks released" 2 (List.length released);
        Alcotest.(check int) "nothing pending" 0 (Supervisor.pending_outcomes sup);
        let wal_after =
          sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))
        in
        Alcotest.(check bool) "flush wrote the records" true
          (String.length wal_after > String.length wal_before));
    Alcotest.test_case "step with a group is still one synced outcome" `Quick
      (fun () ->
        let fs, sup = fresh ~config:(cfg ~group:8 ()) () in
        ignore (checked "step" (sup_exn "step" (Supervisor.step sup ~time:1 (txn_p 1))));
        Alcotest.(check int) "no deferred acks" 0
          (Supervisor.pending_outcomes sup);
        let w =
          sup_exn "wal"
            (Wal.recover
               (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))))
        in
        Alcotest.(check int) "record durable before the ack" 1
          (List.length w.Wal.records));
    Alcotest.test_case "clean kill loses only the unflushed window" `Quick
      (fun () ->
        let fs, sup = fresh ~config:(cfg ~group:3 ()) () in
        let acked = ref 0 in
        List.iter
          (fun i ->
            let outs = sup_exn "submit" (Supervisor.submit sup ~time:i (txn_p i)) in
            acked := !acked + List.length outs)
          [ 1; 2; 3; 4; 5 ];
        (* crash: abandon sup with two records buffered, three synced *)
        Alcotest.(check int) "three acks released before the crash" 3 !acked;
        let sup2, _ =
          sup_exn "recover"
            (Supervisor.recover ~fs ~config:(cfg ~group:3 ()) ~state_dir:"sd"
               cat defaults)
        in
        Alcotest.(check int) "exactly the synced batch survives" 3
          (Supervisor.steps sup2));
    Alcotest.test_case "wal format 2 round-trips through the supervisor"
      `Quick (fun () ->
        let fs, sup = fresh ~config:(cfg ~auto:2 ~wal:2 ()) () in
        ignore (feed_all sup [ (1, txn_p 1); (2, txn_p 2); (3, txn_q 1) ]);
        let w =
          sup_exn "wal"
            (Wal.recover
               (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))))
        in
        Alcotest.(check int) "directory is v2" 2 w.Wal.version;
        (* the directory's format is sticky: recovering with a v1 config
           keeps writing v2 (compaction re-encodes in the found format) *)
        let sup2, _ =
          sup_exn "recover"
            (Supervisor.recover ~fs ~config:(cfg ~auto:2 ~wal:1 ())
               ~state_dir:"sd" cat defaults)
        in
        Alcotest.(check int) "recovered everything" 3 (Supervisor.steps sup2);
        Alcotest.(check int) "format wins over config" 2
          (Supervisor.wal_version sup2);
        ignore (checked "after" (sup_exn "step" (Supervisor.step sup2 ~time:9 (txn_p 9))));
        let w2 =
          sup_exn "wal2"
            (Wal.recover
               (sup_exn "read" (fs.Faults.read_file (Supervisor.wal_path "sd"))))
        in
        Alcotest.(check int) "still v2 after more appends" 2 w2.Wal.version);
    Alcotest.test_case "unknown wal format is refused at create" `Quick
      (fun () ->
        let fs = Faults.mem_fs () in
        Alcotest.(check bool) "refused" true
          (Result.is_error
             (Supervisor.create ~fs ~config:(cfg ~wal:3 ()) ~state_dir:"sd"
                cat defaults))) ]

(* ---------------- Injected write failures ---------------- *)

let write_failure_cases =
  [ Alcotest.test_case "write failures degrade durability, never verdicts"
      `Quick (fun () ->
        let inputs = List.init 30 (fun i -> (i + 1, if i mod 3 = 2 then txn_q (i / 3) else txn_p i)) in
        let clean_fs = Faults.mem_fs () in
        let clean =
          sup_exn "create"
            (Supervisor.create ~fs:clean_fs ~config:(cfg ~auto:4 ())
               ~state_dir:"sd" cat defaults)
        in
        let reference =
          List.map (fun o -> fst (checked "clean" o)) (feed_all clean inputs)
        in
        (* Find a seed where creation succeeds but some write later fails:
           deterministic, and robust to changes in the write sequence. *)
        let rec attempt seed =
          if seed > 100 then Alcotest.fail "no suitable seed found"
          else
            let m = Metrics.create () in
            let fs = Faults.with_write_failures ~seed ~rate:0.2 (Faults.mem_fs ()) in
            match
              Supervisor.create ~fs ~metrics:m ~config:(cfg ~auto:4 ())
                ~state_dir:"sd" cat defaults
            with
            | Error _ -> attempt (seed + 1)
            | Ok sup ->
              let outcomes = feed_all sup inputs in
              let failures =
                Metrics.counter m "wal_append_failures"
                + Metrics.counter m "checkpoint_failures"
              in
              if failures = 0 then attempt (seed + 1) else (sup, outcomes)
        in
        let sup, outcomes = attempt 0 in
        Alcotest.(check bool) "degraded" true (Supervisor.degraded sup);
        List.iteri
          (fun i (got, want) ->
            if fst (checked "degraded run" got) <> want then
              Alcotest.failf "verdicts diverged at input %d" i)
          (List.combine outcomes reference)) ]

(* ---------------- Chaos: crash-recovery equivalence ---------------- *)

let small_scenario () =
  let sc = Scenarios.banking in
  let tr = sc.Scenarios.generate ~seed:3 ~steps:12 ~violation_rate:0.2 in
  (sc.Scenarios.catalog, sc.Scenarios.constraints, tr.Trace.init, tr.Trace.steps)

let chaos_cases =
  [ Alcotest.test_case "every crash point, every plan (banking)" `Slow
      (fun () ->
        let cat, defs, init, inputs = small_scenario () in
        let config = cfg ~auto:3 ~retain:2 () in
        List.iter
          (fun plan ->
            for crash_at = 0 to List.length inputs do
              match
                Chaos.run_episode ~init ~config cat defs ~inputs
                  ~seed:(100 + crash_at) ~plan ~crash_at
              with
              | Ok _ -> ()
              | Error e ->
                Alcotest.failf "plan %s, crash at %d: %s"
                  (Faults.plan_name plan) crash_at e
            done)
          Faults.all_plans);
    Alcotest.test_case "seeded chaos sweep" `Slow (fun () ->
        match Chaos.run ~seed:42 ~iters:10 with
        | Ok eps -> Alcotest.(check int) "all episodes ran" 10 (List.length eps)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "group commit: clean kill at every crash point" `Slow
      (fun () ->
        let cat, defs, init, inputs = small_scenario () in
        let config = cfg ~auto:3 ~retain:2 () in
        for crash_at = 0 to List.length inputs do
          match
            Chaos.run_episode ~init ~group:4 ~config cat defs ~inputs
              ~seed:(500 + crash_at) ~plan:Faults.Kill ~crash_at
          with
          | Ok ep ->
            Alcotest.(check int) "episode ran the requested group" 4 ep.Chaos.group;
            if ep.Chaos.accepted_at_crash - ep.Chaos.recovered_step > 3 then
              Alcotest.failf "crash at %d: lost %d > group - 1" crash_at
                (ep.Chaos.accepted_at_crash - ep.Chaos.recovered_step)
          | Error e -> Alcotest.failf "crash at %d: %s" crash_at e
        done);
    Alcotest.test_case "seeded group-commit chaos sweep" `Slow (fun () ->
        match Chaos.run_group ~seed:7 ~iters:8 with
        | Ok eps -> Alcotest.(check int) "all episodes ran" 8 (List.length eps)
        | Error e -> Alcotest.fail e) ]

let suite =
  [ ("resilience:wal", wal_cases);
    ("resilience:wal2", wal2_cases);
    ("resilience:group-commit", group_cases);
    ("resilience:lifecycle", lifecycle_cases);
    ("resilience:recovery", recovery_cases);
    ("resilience:policies", policy_cases);
    ("resilience:quarantine", quarantine_cases);
    ("resilience:write-failures", write_failure_cases);
    ("resilience:chaos", chaos_cases) ]
