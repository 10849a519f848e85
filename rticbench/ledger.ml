(* The benchmark's in-process half; run.py drives it (see README.md here).

     ledger.exe gen --scenario NAME --steps N --seed S --dir DIR
     ledger.exe layers --dir DIR --seconds S
     ledger.exe calibrate

   [gen] writes one workload's inputs into DIR (spec, trace, a 1-txn
   trace, the serve request stream) together with the reference outputs
   that every timed run is checked against: the exact stdout of
   `rtic check`, and the expected reply of every serve request.  The
   references come from an in-process Monitor run, computed here once so
   that no timed region pays for them.

   [layers] is the outside-in layer ledger.  It calls the public functions
   of each layer in the order the CLI calls them and times every call from
   outside; nothing inside lib/ or bin/ is instrumented:
   - batch path (`rtic check`): spec parse, Trace.parse, Monitor.step per
     transaction, then Trace.materialize (check_with_future runs it after
     the incremental pass);
   - service path (`rtic serve`): Supervisor.step per transaction on a
     Faults.mem_fs state directory, then Server request handling
     (conn_feed_line + conn_drain) for the whole request stream, stats
     reads included.
   It repeats the ledger until S seconds have passed (at least once) and
   prints one JSON object: medians over the repetitions for times and the
   first repetition's value for counts (run.py --self-test checks that
   they repeat).  Every reply and report is checked against the
   reference.

   [calibrate] times a fixed integer loop: an informational probe of the
   host's speed, printed beside each run's metrics. *)

module Schema = Rtic_relational.Schema
module Textio = Rtic_relational.Textio
module Update = Rtic_relational.Update
module Trace = Rtic_temporal.Trace
module Parser = Rtic_mtl.Parser
module Pretty = Rtic_mtl.Pretty
module Faults = Rtic_core.Faults
module Json = Rtic_core.Json
module Metrics = Rtic_core.Metrics
module Monitor = Rtic_core.Monitor
module Server = Rtic_core.Server
module Stats = Rtic_core.Stats
module Supervisor = Rtic_core.Supervisor
module Scenarios = Rtic_workload.Scenarios

let session = "bench"
let stats_every = 100
let violation_rate = 0.1

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt

let ok_or_die what = function Ok v -> v | Error m -> die "%s: %s" what m

let read_file path = ok_or_die path (Faults.real_fs.read_file path)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let now = Unix.gettimeofday

(* ---------------- shared encodings ---------------- *)

let op_line = function
  | Update.Insert (rel, t) -> "+" ^ Textio.fact_to_string rel t
  | Update.Delete (rel, t) -> "-" ^ Textio.fact_to_string rel t

(* The serve request stream: one txn request per transaction, and a stats
   read after every [stats_every] transactions.  Each request is its list
   of lines, without newlines. *)
let requests (tr : Trace.t) =
  List.concat
    (List.mapi
       (fun i (time, txn) ->
         let req =
           Printf.sprintf "txn %s %d %d" session time (List.length txn)
           :: List.map op_line txn
         in
         if (i + 1) mod stats_every = 0 then
           [ req; [ Printf.sprintf "stats %s" session ] ]
         else [ req ])
       tr.Trace.steps)

let report_json (r : Monitor.report) =
  Json.Obj
    [ ("constraint", Json.Str r.constraint_name);
      ("position", Json.Int r.position);
      ("time", Json.Int r.time) ]

let report_line r = Format.asprintf "%a" Monitor.pp_report r

(* The two stats fields a service session legitimately differs on from
   the batch reference: wall-clock latency and the supervisor's own named
   counters. *)
let rec scrub = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "latency_ns" || k = "counters" then None
           else Some (k, scrub v))
         fields)
  | Json.List items -> Json.List (List.map scrub items)
  | j -> j

(* ---------------- gen ---------------- *)

let gen ~scenario ~steps ~seed ~dir =
  let sc =
    match List.find_opt (fun (s : Scenarios.t) -> s.name = scenario) Scenarios.all with
    | Some sc -> sc
    | None -> die "unknown scenario %s" scenario
  in
  let spec_text =
    String.concat "\n"
      (List.map Textio.schema_to_string (Schema.Catalog.schemas sc.catalog)
       @ List.map Pretty.def_to_string sc.constraints)
    ^ "\n"
  in
  let trace_text =
    Trace.to_string (sc.generate ~seed ~steps ~violation_rate)
  in
  write_file (Filename.concat dir "spec.txt") spec_text;
  write_file (Filename.concat dir "trace.txt") trace_text;
  (* The references are computed from the files as written, so a file that
     does not round-trip shows up as a mismatch, not as a wrong baseline. *)
  let spec = ok_or_die "spec" (Parser.spec_of_string spec_text) in
  let tr = ok_or_die "trace" (Trace.parse trace_text) in
  let first_time = fst (List.hd tr.steps) in
  write_file (Filename.concat dir "one.txt")
    (Trace.to_string (Trace.make_exn spec.catalog [ (first_time, []) ]));
  let metrics = Metrics.create () in
  let m =
    ok_or_die "monitor"
      (Monitor.create_with ~metrics tr.init spec.Parser.defs)
  in
  let check_out = Buffer.create (1 lsl 16) in
  let serve_out = Buffer.create (1 lsl 20) in
  let add_line buf j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  let _, _, nviol =
    List.fold_left
      (fun (m, stats, nviol) (i, (time, txn)) ->
        let m, rs = ok_or_die "reference step" (Monitor.step m ~time txn) in
        let stats = Stats.observe stats ~time ~space:(Monitor.space m) ~reports:rs in
        List.iter
          (fun r ->
            Buffer.add_string check_out (report_line r);
            Buffer.add_char check_out '\n')
          rs;
        add_line serve_out
          (Json.Obj [ ("reports", Json.List (List.map report_json rs)) ]);
        if (i + 1) mod stats_every = 0 then
          add_line serve_out
            (Json.Obj [ ("stats", scrub (Stats.to_json ~metrics stats)) ]);
        (m, stats, nviol + List.length rs))
      (m, Stats.empty, 0)
      (List.mapi (fun i s -> (i, s)) tr.steps)
  in
  let n = Trace.length tr in
  Buffer.add_string check_out
    (Printf.sprintf "%d transaction(s), %d violation(s)\n" n nviol);
  write_file (Filename.concat dir "check.expected") (Buffer.contents check_out);
  write_file (Filename.concat dir "serve.expected") (Buffer.contents serve_out);
  let reqs = requests tr in
  write_file (Filename.concat dir "requests.txt")
    (String.concat "" (List.map (fun l -> String.concat "\n" l ^ "\n") reqs));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("txns", Json.Int n);
            ("check_exit", Json.Int (if nviol > 0 then 1 else 0)) ]))

(* ---------------- layers ---------------- *)

let percentile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile 0.5 (Array.of_list xs)

let sum = Array.fold_left ( +. ) 0.0

(* A mem_fs that counts the bytes appended to one file (the WAL). *)
let counting_fs path =
  let fs = Faults.mem_fs () in
  let bytes = ref 0 in
  let count p s = if p = path then bytes := !bytes + String.length s in
  ( { fs with
      append_file = (fun p s -> count p s; fs.append_file p s);
      open_append =
        (fun p ->
          Result.map
            (fun (h : Faults.handle) ->
              { h with h_write = (fun s -> count p s; h.h_write s) })
            (fs.open_append p)) },
    bytes )

type rep = {
  metrics : (string * float) list;  (* timings, medians taken over reps *)
  counts : (string * float) list;  (* host-independent, repeat exactly *)
  failed : int;
  attempted : int;
}

(* Minor words the timing scaffold itself allocates per step, subtracted
   from the per-step allocation count. *)
let scaffold_words =
  let n = 1000 in
  let lat = Array.make n 0.0 in
  let words = ref 0.0 in
  for i = 0 to n - 1 do
    let w0 = Gc.minor_words () in
    let t0 = now () in
    lat.(i) <- now () -. t0;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  !words /. float_of_int n

let ledger_rep ~first ~spec_text ~trace_text ~reqs ~expected_check
    ~expected_serve =
  let failed = ref 0 and attempted = ref 0 in
  let expect what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      prerr_endline ("ledger: mismatch: " ^ what)
    end
  in
  (* Batch path, in `rtic check` order. *)
  let t0 = now () in
  let spec = ok_or_die "spec" (Parser.spec_of_string spec_text) in
  let t1 = now () in
  let tr = ok_or_die "trace" (Trace.parse trace_text) in
  let t2 = now () in
  let n = Trace.length tr in
  let m =
    ok_or_die "monitor" (Monitor.create_with tr.init spec.Parser.defs)
  in
  let step_lat = Array.make n 0.0 in
  let reports = Array.make n [] in
  let aux_peak = ref 0 in
  let words = ref 0.0 in
  let m =
    List.fold_left
      (fun m (i, (time, txn)) ->
        let w0 = Gc.minor_words () in
        let s0 = now () in
        let m, rs = ok_or_die "step" (Monitor.step m ~time txn) in
        step_lat.(i) <- now () -. s0;
        words := !words +. (Gc.minor_words () -. w0);
        reports.(i) <- rs;
        aux_peak := max !aux_peak (Monitor.space m);
        m)
      m
      (List.mapi (fun i s -> (i, s)) tr.steps)
  in
  let t3 = now () in
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let aux_final = Monitor.space m in
  let h = ok_or_die "materialize" (Trace.materialize tr) in
  let t4 = now () in
  ignore (Sys.opaque_identity h);
  let check_out = Buffer.create (1 lsl 16) in
  let nviol = ref 0 in
  Array.iter
    (List.iter (fun r ->
         incr nviol;
         Buffer.add_string check_out (report_line r);
         Buffer.add_char check_out '\n'))
    reports;
  Buffer.add_string check_out
    (Printf.sprintf "%d transaction(s), %d violation(s)\n" n !nviol);
  expect "monitor reports" (Buffer.contents check_out = expected_check);
  Gc.compact ();
  (* Service path: the supervisor a serve session runs, on mem_fs. *)
  let state_dir = "svc" in
  let fs, wal_bytes = counting_fs (Supervisor.wal_path state_dir) in
  let sup =
    ok_or_die "supervisor"
      (Supervisor.create ~fs ~state_dir spec.Parser.catalog spec.Parser.defs)
  in
  let sup_lat = Array.make n 0.0 in
  List.iteri
    (fun i (time, txn) ->
      let s0 = now () in
      let outcome = Supervisor.step sup ~time txn in
      sup_lat.(i) <- now () -. s0;
      expect "supervisor outcome"
        (match outcome with
         | Ok (Supervisor.Checked { reports = rs; inconclusive = [] }) ->
           rs = reports.(i)
         | _ -> false))
    tr.steps;
  Gc.compact ();
  (* Server: one ephemeral session fed request by request. *)
  let srv_fs = Faults.mem_fs () in
  ok_or_die "spec copy" (srv_fs.write_file "spec.txt" spec_text);
  let srv = Server.create ~fs:srv_fs () in
  let conn = Server.connect srv in
  Server.conn_feed_line conn (Printf.sprintf "open %s spec.txt" session);
  (match Server.conn_drain conn with
   | [ reply ] ->
     expect "open" (Json.of_string reply |> Result.to_option
                    |> Option.map (Json.member "ok") = Some (Some (Json.Bool true)))
   | _ -> expect "open" false);
  let nreq = Array.length reqs in
  let srv_lat = Array.make nreq 0.0 in
  let replies = Array.make nreq "" in
  Array.iteri
    (fun i lines ->
      let s0 = now () in
      List.iter (Server.conn_feed_line conn) lines;
      let rs = Server.conn_drain conn in
      srv_lat.(i) <- now () -. s0;
      replies.(i) <- String.concat "\n" rs)
    reqs;
  let txn_lat = ref [] and stats_lat = ref [] in
  Array.iteri
    (fun i reply ->
      let expected = expected_serve.(i) in
      let is_stats = Json.member "stats" expected <> None in
      if is_stats then stats_lat := srv_lat.(i) :: !stats_lat
      else txn_lat := srv_lat.(i) :: !txn_lat;
      expect "server reply"
        (match Json.of_string reply with
         | Error _ -> false
         | Ok doc ->
           Json.member "ok" doc = Some (Json.Bool true)
           &&
           if is_stats then
             Option.map scrub (Json.member "stats" doc)
             = Json.member "stats" expected
           else
             Json.member "outcome" doc = Some (Json.Str "checked")
             && Json.member "reports" doc = Json.member "reports" expected))
    replies;
  let us x = x *. 1e6 and ms x = x *. 1e3 in
  let fn = float_of_int n in
  let batch_s = t4 -. t0 in
  let monitor_s = sum step_lat in
  let txn_lat = Array.of_list !txn_lat and stats_lat = Array.of_list !stats_lat in
  let metrics =
    [ ("trace.parse_us_per_txn", us (t2 -. t1) /. fn);
      ("history.materialize_ms", ms (t4 -. t3));
      ("history.materialize_share", (t4 -. t3) /. batch_s);
      ("monitor.step_p50_us", us (percentile 0.5 step_lat));
      ("monitor.step_p99_us", us (percentile 0.99 step_lat));
      ("monitor.step_total_ms", ms monitor_s);
      ("supervisor.step_p50_us", us (percentile 0.5 sup_lat));
      ("supervisor.step_p99_us", us (percentile 0.99 sup_lat));
      ("supervisor.overhead_us_per_txn", us (sum sup_lat -. monitor_s) /. fn);
      ("server.txn_p50_us", us (percentile 0.5 txn_lat));
      ("server.txn_p99_us", us (percentile 0.99 txn_lat));
      ("server.stats_p50_us", us (percentile 0.5 stats_lat));
      (* inputs of the shares run.py derives against end-to-end walls *)
      ("batch_path_s", batch_s);
      ("server_requests_s", sum srv_lat) ]
  in
  let counts =
    [ ("kernel.aux_rows_peak", float_of_int !aux_peak);
      ("kernel.aux_rows_final", float_of_int aux_final);
      ("kernel.minor_words_per_txn", (!words /. fn) -. scaffold_words);
      ("wal.bytes_per_txn", float_of_int !wal_bytes /. fn) ]
    @
    (* The heap high-water mark is process-wide, so only the first
       repetition measures the batch path alone. *)
    if first then
      [ ("kernel.top_heap_mb",
         float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0) ]
    else []
  in
  { metrics; counts; failed = !failed; attempted = !attempted }

let layers ~dir ~seconds =
  let spec_text = read_file (Filename.concat dir "spec.txt") in
  let trace_text = read_file (Filename.concat dir "trace.txt") in
  let reqs =
    Array.of_list (requests (ok_or_die "trace" (Trace.parse trace_text)))
  in
  let expected_check = read_file (Filename.concat dir "check.expected") in
  let expected_serve =
    read_file (Filename.concat dir "serve.expected")
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun l -> ok_or_die "serve.expected" (Json.of_string l))
    |> Array.of_list
  in
  if Array.length expected_serve <> Array.length reqs then
    die "serve.expected has %d lines for %d requests"
      (Array.length expected_serve) (Array.length reqs);
  let start = now () in
  (* A repetition that would end past the budget is not started. *)
  let rec loop acc =
    let first = acc = [] in
    let t0 = now () in
    let r =
      ledger_rep ~first ~spec_text ~trace_text ~reqs ~expected_check
        ~expected_serve
    in
    Gc.compact ();
    let acc = r :: acc in
    let t1 = now () in
    if t1 -. start +. (t1 -. t0) <= seconds then loop acc else List.rev acc
  in
  let reps = loop [] in
  let first = List.hd reps in
  let timing name = median (List.map (fun r -> List.assoc name r.metrics) reps) in
  let fields =
    List.map (fun (k, _) -> (k, Json.Float (timing k))) first.metrics
    @ List.map (fun (k, v) -> (k, Json.Float v)) first.counts
  in
  print_endline
    (Json.to_string
       (Json.Obj
          (fields
           @ [ ("attempted",
                Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 reps));
               ("failed",
                Json.Int (List.fold_left (fun a r -> a + r.failed) 0 reps)) ])))

(* ---------------- calibrate ---------------- *)

let calibrate () =
  let probe () =
    let x = ref 88172645463325252 in
    let t0 = now () in
    for _ = 1 to 30_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    ignore (Sys.opaque_identity !x);
    (now () -. t0) *. 1e3
  in
  let runs = List.init 5 (fun _ -> probe ()) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("probe", Json.Str "xorshift64 x 3e7, median of 5");
            ("ms", Json.Float (median runs)) ]))

(* ---------------- command line ---------------- *)

let () =
  let scenario = ref "" and steps = ref 0 and seed = ref 0 in
  let dir = ref "" and seconds = ref 0.0 in
  let spec =
    [ ("--scenario", Arg.Set_string scenario, "NAME  scenario to generate");
      ("--steps", Arg.Set_int steps, "N  transactions to generate");
      ("--seed", Arg.Set_int seed, "S  workload seed");
      ("--dir", Arg.Set_string dir, "DIR  workload directory");
      ("--seconds", Arg.Set_float seconds, "S  ledger repetition budget") ]
  in
  let cmd = ref "" in
  Arg.parse spec (fun a -> cmd := a)
    "ledger.exe (gen|layers|calibrate) [options]";
  match !cmd with
  | "gen" when !scenario <> "" && !steps > 0 && !dir <> "" ->
    gen ~scenario:!scenario ~steps:!steps ~seed:!seed ~dir:!dir
  | "layers" when !dir <> "" -> layers ~dir:!dir ~seconds:!seconds
  | "calibrate" -> calibrate ()
  | _ -> die "usage: ledger.exe (gen|layers|calibrate) [options]"
