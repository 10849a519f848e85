(* rtic — command-line front end for the real-time integrity constraint
   checker.

   Subcommands:
     rtic parse SPEC            validate a specification file
     rtic check SPEC TRACE      monitor a trace, report violations
     rtic recover SPEC DIR      inspect/salvage a crash-safe state dir
     rtic repair SPEC DIR       propose (or apply) constraint repairs
     rtic rules SPEC            show the compiled active-DBMS rules
     rtic explain SPEC TRACE    show violation witnesses
     rtic gen                   generate a synthetic trace
     rtic lint-json [FILE]      validate a JSON document (stdin by default)
     rtic profile [FILE]        aggregate an rtic-trace/1 stream (stdin)

   Exit codes, everywhere: 0 = success and every constraint holds;
   1 = the check ran but found violations (or: the linted document is
   invalid, the queried formula is false, the state dir is
   unrecoverable, a repair search came back unrepairable/inconclusive);
   2 = usage or internal error (unreadable file, parse failure, invalid
   flag combination); 3 = every constraint holds but only because
   repairs were applied (rtic check --on-error repair, rtic repair
   --apply). *)

module Schema = Rtic_relational.Schema
module Database = Rtic_relational.Database
module Trace = Rtic_temporal.Trace
module History = Rtic_temporal.History
module Formula = Rtic_mtl.Formula
module Parser = Rtic_mtl.Parser
module Pretty = Rtic_mtl.Pretty
module Rewrite = Rtic_mtl.Rewrite
module Safety = Rtic_mtl.Safety
module Valrel = Rtic_eval.Valrel
module Naive = Rtic_eval.Naive
module Codd = Rtic_eval.Codd
module Incremental = Rtic_core.Incremental
module Monitor = Rtic_core.Monitor
module Shared = Rtic_core.Shared
module Stats = Rtic_core.Stats
module Metrics = Rtic_core.Metrics
module Tracer = Rtic_core.Tracer
module Profile = Rtic_core.Profile
module Json = Rtic_core.Json
module Future = Rtic_core.Future
module Supervisor = Rtic_core.Supervisor
module Repair = Rtic_core.Repair
module Faults = Rtic_core.Faults
module Wal = Rtic_core.Wal
module Pool = Rtic_core.Pool
module Telemetry = Rtic_core.Telemetry
module Server = Rtic_core.Server
module Compile = Rtic_active.Compile
module Scenarios = Rtic_workload.Scenarios
module Gen = Rtic_workload.Gen

open Cmdliner

(* Delegate to the hardened fs record: reads to EOF (no length/size race),
   closes the channel on every path, and maps I/O exceptions to [Error]. *)
let read_file path = Faults.(real_fs.read_file) path

let ( let* ) r f = Result.bind r f

(* Usage and internal errors exit 2; exit 1 is reserved for "the check ran
   and found violations" (see the header comment). *)
let usage_error m =
  Printf.eprintf "rtic: %s\n" m;
  exit 2

let or_die = function
  | Ok v -> v
  | Error m -> usage_error m

let load_spec path =
  let* text = read_file path in
  Parser.spec_of_string text

let load_trace path =
  let* text = read_file path in
  Trace.parse text

(* ------------------------------------------------------------------ *)
(* parse                                                               *)
(* ------------------------------------------------------------------ *)

let run_parse spec_file =
  let spec = or_die (load_spec spec_file) in
  Printf.printf "catalog: %d relation(s)\n"
    (List.length (Schema.Catalog.names spec.Parser.catalog));
  List.iter
    (fun s -> Format.printf "  %a@." Schema.pp s)
    (Schema.Catalog.schemas spec.Parser.catalog);
  Printf.printf "constraints: %d\n" (List.length spec.Parser.defs);
  List.iter
    (fun (d : Formula.def) ->
      Format.printf "@.constraint %s:@.  %a@." d.name Pretty.pp d.body;
      (match Safety.monitorable spec.Parser.catalog d with
       | Error m -> Format.printf "  NOT MONITORABLE: %s@." m
       | Ok () ->
         Format.printf "  normalized:   %a@." Pretty.pp (Rewrite.normalize d.body);
         Format.printf "  past window:  %s@."
           (match Formula.time_reach d.body with
            | Some w -> string_of_int w ^ " ticks"
            | None -> "unbounded");
         Format.printf "  future horizon: %s@."
           (match Formula.future_reach d.body with
            | Some 0 -> "0 (pure past)"
            | Some w -> string_of_int w ^ " ticks (requires verdict delay)"
            | None -> "unbounded (not monitorable)")))
    spec.Parser.defs;
  0

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

type engine =
  | E_incremental
  | E_shared
  | E_naive
  | E_active
  | E_future

let split_defs spec =
  List.partition
    (fun (d : Formula.def) -> Formula.past_only d.body)
    spec.Parser.defs

(* Incremental run with optional checkpoint restore/save. The restored
   monitor's database replaces the trace's initial state, so a saved run can
   be continued with a trace holding only the remaining transactions. *)
let run_incremental_with_state ?metrics ?tracer ?pool config cat past_defs
    (tr : Trace.t) load save want_stats =
  let* m =
    match load with
    | None ->
      Monitor.create_with ?metrics ?tracer ?pool ~config tr.Trace.init
        past_defs
    | Some path ->
      let* text = read_file path in
      Monitor.of_text ?metrics ?tracer ?pool ~config cat past_defs text
  in
  let* m, reports_rev, stats =
    List.fold_left
      (fun acc (time, txn) ->
        let* m, out_rev, stats = acc in
        let* m, rs = Monitor.step m ~time txn in
        Logs.info (fun k ->
            k "[%d] txn: %d violation(s), aux space %d" time (List.length rs)
              (Monitor.space m));
        let stats =
          if want_stats then
            Stats.observe stats ~time ~space:(Monitor.space m) ~reports:rs
          else stats
        in
        Ok (m, List.rev_append rs out_rev, stats))
      (Ok (m, [], Stats.empty))
      tr.Trace.steps
  in
  (match save with
   | Some path ->
     let oc = open_out path in
     output_string oc (Monitor.to_text m);
     close_out oc
   | None -> ());
  Ok (List.rev reports_rev, stats)

(* Crash-safe service mode (--state-dir): run the trace through a
   Supervisor instead of a bare Monitor. A fresh directory starts a new
   service; an existing one is recovered (checkpoint + WAL replay) and
   trace transactions that recovery already covered are skipped, so the
   same invocation can simply be re-run after a crash. *)
let run_supervised ?tracer ?pool ~ppf cat past_defs (tr : Trace.t)
    state_dir auto_ck on_error aux_budget group_commit wal_format quiet
    want_stats want_json =
  let policy = or_die (Supervisor.policy_of_string on_error) in
  if group_commit < 1 then usage_error "--group-commit must be at least 1";
  let scfg =
    { Supervisor.default_config with
      auto_checkpoint = auto_ck;
      on_error = policy;
      aux_budget;
      group_commit;
      wal_format }
  in
  let metrics = if want_stats then Some (Metrics.create ()) else None in
  let sup, steps =
    if Supervisor.state_exists Faults.real_fs state_dir then begin
      let sup, info =
        or_die
          (Supervisor.recover ?metrics ?tracer ?pool ~config:scfg
             ~init:tr.Trace.init ~state_dir cat past_defs)
      in
      List.iter
        (fun (file, reason) ->
          Printf.eprintf "rtic: skipped corrupt checkpoint %s: %s\n" file
            reason)
        info.Supervisor.checkpoints_skipped;
      (match info.Supervisor.torn_tail with
       | Some reason -> Printf.eprintf "rtic: dropped torn WAL tail: %s\n" reason
       | None -> ());
      Printf.eprintf
        "rtic: recovered %d transaction(s) from %s (checkpoint %s, %d \
         replayed)\n"
        (Supervisor.steps sup) state_dir
        (match info.Supervisor.checkpoint_step with
         | Some s -> string_of_int s
         | None -> "none")
        info.Supervisor.replayed;
      (* Drop trace transactions recovery already covered. *)
      let already t =
        match Supervisor.last_time sup with
        | Some l -> t <= l
        | None -> false
      in
      let steps = List.filter (fun (t, _) -> not (already t)) tr.Trace.steps in
      let dropped = List.length tr.Trace.steps - List.length steps in
      if dropped > 0 then
        Printf.eprintf "rtic: %d trace transaction(s) already processed\n"
          dropped;
      (sup, steps)
    end
    else
      ( or_die
          (Supervisor.create ?metrics ?tracer ?pool ~config:scfg
             ~init:tr.Trace.init ~state_dir cat past_defs),
        tr.Trace.steps )
  in
  let reports = ref [] in
  let dropped = ref 0 in
  let repaired_txns = ref 0 in
  let stats = ref Stats.empty in
  let handle time = function
    | Supervisor.Checked { reports = rs; inconclusive = _ } ->
        if not (quiet || want_json) then
          List.iter (fun r -> Format.fprintf ppf "%a@." Monitor.pp_report r) rs;
        if want_stats then
          stats :=
            Stats.observe !stats ~time ~space:(Supervisor.space sup)
              ~reports:rs;
        reports := List.rev_append rs !reports
      | Supervisor.Repaired { actions; witnesses; repaired = _;
                              inconclusive = _ } ->
        incr repaired_txns;
        if not (quiet || want_json) then
          List.iter
            (fun (op, by) ->
              Format.fprintf ppf "repaired at time %d: %a (fired by %s)@."
                time Rtic_relational.Update.pp_op op by)
            witnesses;
        ignore actions;
        if want_stats then
          stats :=
            Stats.observe !stats ~time ~space:(Supervisor.space sup)
              ~reports:[]
      | Supervisor.Unrepairable { reports = rs; unrepairable;
                                  inconclusive = _ } ->
        if not (quiet || want_json) then
          List.iter (fun r -> Format.fprintf ppf "%a@." Monitor.pp_report r) rs;
        List.iter
          (fun (c, off) ->
            Printf.eprintf
              "rtic: constraint %s is unrepairable at time %d (verdict \
               anchored in past states by %s)\n"
              c time off)
          unrepairable;
        if want_stats then
          stats :=
            Stats.observe !stats ~time ~space:(Supervisor.space sup)
              ~reports:rs;
        reports := List.rev_append rs !reports
    | Supervisor.Skipped reason | Supervisor.Rejected reason ->
      incr dropped;
      Printf.eprintf "rtic: dropped transaction at time %d: %s\n" time reason
  in
  (* Outcomes are released in submission order when their batch flushes
     (at once when group_commit = 1); pair them back with their commit
     times FIFO. *)
  let times = Queue.create () in
  let drain outs = List.iter (fun o -> handle (Queue.pop times) o) outs in
  List.iter
    (fun (time, txn) ->
      Queue.push time times;
      drain (or_die (Supervisor.submit sup ~time txn)))
    steps;
  drain (Supervisor.flush sup);
  (match Supervisor.quarantined sup with
   | [] -> ()
   | q ->
     Printf.eprintf
       "rtic: %d constraint(s) quarantined (verdicts inconclusive): %s\n"
       (List.length q)
       (String.concat ", " (List.map fst q)));
  if Supervisor.degraded sup then
    Printf.eprintf
      "rtic: durability degraded (a WAL or checkpoint write failed)\n";
  if want_json then
    (* Machine mode composes with the supervised run: the rtic-stats/1
       document (covering the transactions processed after recovery) is the
       only stdout output; diagnostics stay on stderr. *)
    print_endline (Json.to_string ~indent:true (Stats.to_json ?metrics !stats))
  else begin
    if want_stats then begin
      Format.fprintf ppf "%a@." Stats.pp !stats;
      match metrics with
      | Some m -> Format.fprintf ppf "%a@." Metrics.pp m
      | None -> ()
    end;
    Format.fprintf ppf "%d transaction(s), %d violation(s)%s%s@."
      (List.length steps)
      (List.length !reports)
      (if !repaired_txns > 0 then
         Printf.sprintf ", %d repaired" !repaired_txns
       else "")
      (if !dropped > 0 then Printf.sprintf ", %d dropped" !dropped else "")
  end;
  (* Exit 3: no violation stands, but only because repairs were applied —
     distinct from a clean 0 so callers can audit self-healed runs. *)
  if !reports <> [] then 1 else if !repaired_txns > 0 then 3 else 0

let run_check spec_file trace_file engine no_prune jobs quiet load save
    want_stats want_json want_trace trace_out state_dir auto_ck on_error
    aux_budget group_commit wal_format =
  let want_stats = want_stats || want_json in
  if jobs < 1 then usage_error "--jobs must be at least 1";
  if jobs > 1 && not (List.mem engine [ E_incremental; E_shared ]) then
    usage_error "--jobs requires --engine incremental or shared";
  if want_trace then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  if (load <> None || save <> None) && engine <> E_incremental then
    usage_error "checkpointing requires --engine incremental";
  if want_stats && engine <> E_incremental then
    usage_error "--stats/--json require --engine incremental";
  (match trace_out with
   | None -> ()
   | Some dest ->
     if not (List.mem engine [ E_incremental; E_shared; E_future ]) then
       usage_error
         "--trace-out requires --engine incremental, shared or future";
     if dest = "-" && want_json then
       usage_error "--trace-out - conflicts with --json (both claim stdout)");
  let trace_oc, close_trace =
    match trace_out with
    | None -> (None, fun () -> ())
    | Some "-" -> (Some stdout, fun () -> flush stdout)
    | Some path ->
      let oc = open_out path in
      (Some oc, fun () -> close_out oc)
  in
  let tracer =
    Option.map
      (fun oc ->
        Tracer.create
          ~emit:(fun line ->
            output_string oc line;
            output_char oc '\n')
          ())
      trace_oc
  in
  (* With --trace-out -, the event stream owns stdout and every human line
     moves to stderr, so `rtic check --trace-out - | rtic profile` works. *)
  let ppf =
    if trace_out = Some "-" then Format.err_formatter else Format.std_formatter
  in
  let spec =
    or_die
      (Tracer.span tracer ~cat:"parse" ~name:"spec" ~arg:spec_file (fun () ->
           load_spec spec_file))
  in
  let tr =
    or_die
      (Tracer.span tracer ~cat:"parse" ~name:"trace" ~arg:trace_file
         (fun () -> load_trace trace_file))
  in
  let cat = spec.Parser.catalog in
  let config = { Incremental.prune = not no_prune } in
  let past_defs, future_defs = split_defs spec in
  let pool = if jobs > 1 then Some (Pool.create jobs) else None in
  let code =
  match state_dir with
  | Some dir ->
    if engine <> E_incremental then
      usage_error "--state-dir requires --engine incremental";
    if load <> None || save <> None then
      usage_error "--state-dir conflicts with --load-state/--save-state";
    if no_prune then usage_error "--state-dir conflicts with --no-prune";
    if future_defs <> [] then
      usage_error
        "--state-dir supports past-only constraints (future operators need \
         verdict delay, which is not crash-safe)";
    run_supervised ?tracer ?pool ~ppf cat past_defs tr dir auto_ck
      on_error aux_budget group_commit wal_format quiet want_stats want_json
  | None ->
    if
      on_error <> "halt" || auto_ck <> 64 || aux_budget <> None
      || group_commit <> 1 || wal_format <> 1
    then
      usage_error
        "--on-error/--auto-checkpoint/--aux-budget/--group-commit/\
         --wal-format require --state-dir";
  let metrics = if want_stats then Some (Metrics.create ()) else None in
  let stats = ref Stats.empty in
  let reports =
    match engine with
    | E_incremental ->
      let rs, st =
        or_die
          (run_incremental_with_state ?metrics ?tracer ?pool config cat
             past_defs tr load save want_stats)
      in
      stats := st;
      rs
    | E_shared -> or_die (Shared.run_trace ?tracer ?pool ~config past_defs tr)
    | E_naive -> or_die (Monitor.run_trace_naive past_defs tr)
    | E_active ->
      List.fold_left
        (fun acc (d : Formula.def) ->
          let* acc = acc in
          let* prog = Compile.compile cat d in
          let* _, _, _, viols =
            List.fold_left
              (fun acc (time, txn) ->
                let* eng, db, idx, viols = acc in
                let* db = Rtic_relational.Update.apply db txn in
                let* eng, ok = Compile.step eng ~time db in
                let viols =
                  if ok then viols
                  else
                    { Monitor.constraint_name = d.name; position = idx; time }
                    :: viols
                in
                Ok (eng, db, idx + 1, viols))
              (Ok (Compile.start prog, tr.Trace.init, 0, []))
              tr.Trace.steps
          in
          Ok (viols @ acc))
        (Ok []) past_defs
      |> Result.map List.rev
      |> or_die
    | E_future -> or_die (Future.run_trace ?tracer cat spec.Parser.defs tr)
  in
  let reports =
    if engine = E_future then reports
    else begin
      if future_defs <> [] then
        Printf.eprintf
          "rtic: note: %d constraint(s) use future operators and were \
           checked by verdict delay\n"
          (List.length future_defs);
      reports @ or_die (Future.run_trace ?tracer cat future_defs tr)
    end
  in
  if want_json then
    (* Machine mode: the JSON document is the only stdout output; report
       lines and the human summary are suppressed. Exit code is unchanged. *)
    print_endline (Json.to_string ~indent:true (Stats.to_json ?metrics !stats))
  else begin
    if not quiet then
      List.iter (fun r -> Format.fprintf ppf "%a@." Monitor.pp_report r)
        reports;
    if want_stats then begin
      Format.fprintf ppf "%a@." Stats.pp !stats;
      match metrics with
      | Some m -> Format.fprintf ppf "%a@." Metrics.pp m
      | None -> ()
    end;
    Format.fprintf ppf "%d transaction(s), %d violation(s)@." (Trace.length tr)
      (List.length reports)
  end;
  if reports = [] then 0 else 1
  in
  Format.pp_print_flush ppf ();
  close_trace ();
  Option.iter Pool.shutdown pool;
  code

(* ------------------------------------------------------------------ *)
(* recover                                                             *)
(* ------------------------------------------------------------------ *)

(* Inspect a crash-safe state directory: report the WAL and every
   checkpoint, then attempt a recovery (read-only unless --repair).
   Exit 0 if the directory is recoverable, 1 if not, 2 on usage errors. *)
let run_recover spec_file dir repair =
  let spec = or_die (load_spec spec_file) in
  let cat = spec.Parser.catalog in
  let past_defs, _ = split_defs spec in
  let fs = Faults.real_fs in
  if not (Supervisor.state_exists fs dir) then
    usage_error (dir ^ " holds no WAL; not a supervisor state directory");
  (match fs.Faults.read_file (Supervisor.wal_path dir) with
   | Error m -> Printf.printf "wal: unreadable (%s)\n" m
   | Ok text ->
     (match Wal.recover text with
      | Error m -> Printf.printf "wal: corrupt header (%s)\n" m
      | Ok w ->
        Printf.printf "wal: start %d, %d record(s)%s\n" w.Wal.start
          (List.length w.Wal.records)
          (match w.Wal.torn with
           | Some reason -> ", torn tail (" ^ reason ^ ")"
           | None -> "")));
  List.iter
    (fun (step, path) ->
      match Supervisor.load_checkpoint ~fs cat past_defs path with
      | Ok _ -> Printf.printf "checkpoint %d: ok\n" step
      | Error m -> Printf.printf "checkpoint %d: corrupt (%s)\n" step m)
    (Supervisor.checkpoint_files fs dir);
  match
    Supervisor.recover ~fs ~repair ~state_dir:dir cat past_defs
  with
  | Error m ->
    Printf.printf "unrecoverable: %s\n" m;
    1
  | Ok (sup, info) ->
    Printf.printf "recoverable: %d transaction(s) (checkpoint %s, %d \
                   replayed)%s\n"
      (Supervisor.steps sup)
      (match info.Supervisor.checkpoint_step with
       | Some s -> string_of_int s
       | None -> "none")
      info.Supervisor.replayed
      (if info.Supervisor.repaired then "; repaired" else "");
    0

(* ------------------------------------------------------------------ *)
(* wal dump                                                            *)
(* ------------------------------------------------------------------ *)

(* Render a WAL file — either format — as rtic-wal/1 text on stdout. The
   v2 binary frames carry exactly the v1 record bodies, so the conversion
   is lossless, and dumping a clean v1 log is the identity. A torn tail is
   dropped with a warning (that is what recovery would do) and still
   exits 0; only an unreadable file or a damaged header is an error. *)
let run_wal_dump file =
  match Faults.real_fs.Faults.read_file file with
  | Error m ->
    Printf.eprintf "rtic: %s\n" m;
    1
  | Ok text ->
    (match Wal.recover text with
     | Error m ->
       Printf.eprintf "rtic: %s: %s\n" file m;
       1
     | Ok w ->
       print_string (Wal.encode ~start:w.Wal.start w.Wal.records);
       (match w.Wal.torn with
        | Some reason ->
          Printf.eprintf "rtic: %s: dropped torn tail after %d record(s): %s\n"
            file (List.length w.Wal.records) reason
        | None -> ());
       0)

(* ------------------------------------------------------------------ *)
(* repair                                                              *)
(* ------------------------------------------------------------------ *)

(* Constraint repair of a recovered state. Not to be confused with
   `rtic recover --repair`, which salvages *storage* (fresh checkpoint,
   WAL compaction) and never touches database content: this command asks
   whether the *data* can be healed. It recovers the state directory,
   runs the bounded founded-repair search of Rtic_core.Repair at the next
   commit time, prints the proposal (or, with --apply, commits it through
   the supervisor so the repair is journaled in the WAL and replayed by
   any later recovery), and exits 0 = already clean, 3 = a repair was
   found, 1 = unrepairable or inconclusive. *)
let run_repair spec_file dir apply at_time want_json max_steps max_candidates
    max_depth =
  if max_steps < 1 || max_candidates < 1 || max_depth < 1 then
    usage_error "--max-steps/--max-candidates/--max-depth must be at least 1";
  let spec = or_die (load_spec spec_file) in
  let cat = spec.Parser.catalog in
  let past_defs, future_defs = split_defs spec in
  if future_defs <> [] then
    usage_error
      "rtic repair supports past-only constraints (supervised state holds \
       no verdict-delay buffers)";
  let fs = Faults.real_fs in
  if not (Supervisor.state_exists fs dir) then
    usage_error (dir ^ " holds no WAL; not a supervisor state directory");
  let sup, _info =
    or_die (Supervisor.recover ~fs ~repair:apply ~state_dir:dir cat past_defs)
  in
  let next =
    match Supervisor.last_time sup with Some l -> l + 1 | None -> 0
  in
  let time =
    match at_time with
    | None -> next
    | Some t when t >= next -> t
    | Some t ->
      usage_error
        (Printf.sprintf
           "--at-time %d is not after the last commit time %d" t (next - 1))
  in
  let budget = { Repair.max_steps; max_candidates; max_depth } in
  let skip name = List.mem_assoc name (Supervisor.quarantined sup) in
  let outcome =
    or_die
      (Repair.search ~budget ~checkers:(Supervisor.checkers sup) ~skip ~time
         (Supervisor.database sup))
  in
  let op_str o = Format.asprintf "%a" Rtic_relational.Update.pp_op o in
  let emit_json fields =
    print_endline
      (Json.to_string ~indent:true
         (Json.Obj
            ([ ("schema", Json.Str "rtic-repair/1");
               ("state_dir", Json.Str dir);
               ("time", Json.Int time) ]
            @ fields)))
  in
  match outcome with
  | Repair.Clean ->
    if want_json then emit_json [ ("outcome", Json.Str "clean") ]
    else Printf.printf "clean: every constraint holds at time %d\n" time;
    0
  | Repair.Repaired { actions; witnesses; healed; oracle_steps; db = _ } ->
    let applied =
      if not apply then false
      else begin
        (match or_die (Supervisor.step sup ~time actions) with
         | Supervisor.Checked { reports = []; _ } -> ()
         | Supervisor.Checked { reports; _ } ->
           usage_error
             (Printf.sprintf
                "internal: applied repair left %d violation(s)"
                (List.length reports))
         | _ -> usage_error "internal: unexpected outcome applying repair");
        true
      end
    in
    if want_json then
      emit_json
        [ ("outcome", Json.Str "repaired");
          ("applied", Json.Bool applied);
          ("actions", Json.List (List.map (fun o -> Json.Str (op_str o)) actions));
          ("witnesses",
           Json.List
             (List.map
                (fun (w : Repair.witness) ->
                  Json.Obj
                    [ ("action", Json.Str (op_str w.Repair.action));
                      ("fired_by", Json.Str w.Repair.fired_by) ])
                witnesses));
          ("healed", Json.List (List.map (fun c -> Json.Str c) healed));
          ("oracle_steps", Json.Int oracle_steps) ]
    else begin
      List.iter
        (fun (w : Repair.witness) ->
          Printf.printf "repair: %s (fired by %s)\n" (op_str w.Repair.action)
            w.Repair.fired_by)
        witnesses;
      Printf.printf "heals: %s\n" (String.concat ", " healed);
      if applied then
        Printf.printf "applied %d action(s) at time %d (journaled in %s)\n"
          (List.length actions) time (Supervisor.wal_path dir)
      else
        Printf.printf
          "proposal only; re-run with --apply to commit at time %d\n" time
    end;
    3
  | Repair.Unrepairable stuck ->
    if want_json then
      emit_json
        [ ("outcome", Json.Str "unrepairable");
          ("unrepairable",
           Json.List
             (List.map
                (fun (u : Repair.unrepairable) ->
                  Json.Obj
                    [ ("constraint", Json.Str u.Repair.constraint_name);
                      ("offending", Json.Str u.Repair.offending);
                      ("reason", Json.Str u.Repair.reason) ])
                stuck)) ]
    else
      List.iter
        (fun (u : Repair.unrepairable) ->
          Printf.printf "unrepairable: %s (offending subformula: %s)\n"
            u.Repair.constraint_name u.Repair.offending)
        stuck;
    1
  | Repair.Inconclusive { reason; oracle_steps; candidates } ->
    if want_json then
      emit_json
        [ ("outcome", Json.Str "inconclusive");
          ("reason", Json.Str reason);
          ("oracle_steps", Json.Int oracle_steps);
          ("candidates", Json.Int candidates) ]
    else Printf.printf "inconclusive: %s\n" reason;
    1

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd b off len in
      go (off + n) (len - n)
    end
  in
  go 0 (Bytes.length b)

(* SIGTERM/SIGINT request a clean shutdown: the handler raises, the
   serving loop unwinds through its Fun.protect cleanup (socket unlink,
   listener close, pool shutdown, trace flush) and exits 0. *)
exception Terminated

(* Pump one connected stream: read chunks, feed the complete lines of each
   chunk to the server, then drain and write one reply line per request.
   Draining once per chunk (not per line) is what makes the admission bound
   observable: a pipelined burst larger than --max-pending arrives as one
   chunk and its tail gets explicit `overloaded` replies. Returns on peer
   EOF or after a shutdown request was executed. *)
let pump_stream srv ~read ~write =
  write (Server.hello ^ "\n");
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let reply_all () =
    List.iter (fun r -> write (r ^ "\n")) (Server.drain srv)
  in
  let rec loop () =
    if not (Server.stopped srv) then begin
      let n = read chunk in
      if n = 0 then begin
        (* EOF: a final unterminated line still counts as a line *)
        if Buffer.length buf > 0 then begin
          Server.feed_line srv (Buffer.contents buf);
          Buffer.clear buf
        end;
        reply_all ()
      end
      else begin
        for i = 0 to n - 1 do
          match Bytes.get chunk i with
          | '\n' ->
            Server.feed_line srv (Buffer.contents buf);
            Buffer.clear buf
          | c -> Buffer.add_char buf c
        done;
        reply_all ();
        loop ()
      end
    end
  in
  loop ()

(* ---------------- the multi-client socket transport ---------------- *)

(* One accepted client: its connection handle into the shared engine, the
   partial trailing input line, and the reply bytes awaiting write.
   [out_off] is the flushed prefix of [out] — writes consume the buffer
   front-to-back without re-copying what already went out. *)
type client = {
  fd : Unix.file_descr;
  conn : Server.conn;
  inbuf : Buffer.t;
  out : Buffer.t;
  mutable out_off : int;
  mutable eof : bool;   (* peer closed its writing end; flush, then drop *)
  mutable dead : bool;  (* connection failed; drop without flushing *)
}

(* Per-connection backpressure: once a client has this many unwritten
   reply bytes we stop reading from it, so it cannot submit new work (and
   pin the shared admission budget) faster than it consumes replies. Its
   already-admitted requests still execute — at most max_pending more
   replies land in the buffer — so the budget always drains back to the
   other clients. *)
let out_hiwater = 256 * 1024

(* Fair-drain quantum: each select cycle round-robins the connections,
   executing at most this many queued requests per connection per turn
   until every queue is empty, so one client's pipelined burst interleaves
   with the others instead of running to completion first. *)
let drain_quantum = 32

let out_pending c = Buffer.length c.out - c.out_off

let close_client clients c =
  Hashtbl.remove clients c.fd;
  Server.disconnect c.conn;
  (try Unix.close c.fd with Unix.Unix_error _ -> ())

(* Write what the socket will take without blocking; mark the client dead
   on a connection error (EPIPE/ECONNRESET/...), which drops only this
   client. *)
let flush_client c =
  let len = min (out_pending c) 65536 in
  if len > 0 && not c.dead then begin
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.dead <- true
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
  end

let feed_chunk c chunk n =
  for i = 0 to n - 1 do
    match Bytes.get chunk i with
    | '\n' ->
      Server.conn_feed_line c.conn (Buffer.contents c.inbuf);
      Buffer.clear c.inbuf
    | ch -> Buffer.add_char c.inbuf ch
  done

let read_client c chunk =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> c.dead <- true
  | 0 ->
    (* EOF: a final unterminated line still counts as a line *)
    if Buffer.length c.inbuf > 0 then begin
      Server.conn_feed_line c.conn (Buffer.contents c.inbuf);
      Buffer.clear c.inbuf
    end;
    c.eof <- true
  | n -> feed_chunk c chunk n

(* ---------------- the metrics side channel ---------------- *)

(* A metrics-socket client is one-shot: it sends one request line and the
   server answers once and closes. "json" gets the rtic-metrics/1
   document; an HTTP GET (a Prometheus scraper pointed at the socket)
   gets a minimal HTTP/1.0 response — text exposition, or the JSON
   document when the path mentions "json"; anything else ("prom",
   "metrics", a bare newline) gets the text exposition. Scrapes never
   enter the request queue or touch the admission budget: the snapshot is
   read directly under the engine lock, so monitoring keeps working while
   every main-socket client is wedged or the queue is full. *)
type mclient = {
  m_fd : Unix.file_descr;
  m_in : Buffer.t;
  m_out : Buffer.t;
  mutable m_off : int;
  mutable m_ready : bool;  (* response buffered: flush, then close *)
  mutable m_dead : bool;
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let metrics_response srv line =
  let snap = Server.snapshot srv in
  let json () = Json.to_string (Telemetry.to_json snap) ^ "\n" in
  let lower = String.lowercase_ascii (String.trim line) in
  if String.length lower >= 4 && String.sub lower 0 4 = "get " then begin
    let want_json = contains_sub lower "json" in
    let body = if want_json then json () else Telemetry.to_prometheus snap in
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      (if want_json then "application/json"
       else "text/plain; version=0.0.4")
      (String.length body) body
  end
  else if lower = "json" then json ()
  else Telemetry.to_prometheus snap

let mclient_read srv mc chunk =
  let respond () =
    if not mc.m_ready then begin
      Buffer.add_string mc.m_out
        (metrics_response srv (Buffer.contents mc.m_in));
      mc.m_ready <- true
    end
  in
  match Unix.read mc.m_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> mc.m_dead <- true
  | 0 -> if Buffer.length mc.m_in > 0 then respond () else mc.m_dead <- true
  | n ->
    (match Bytes.index_from_opt chunk 0 '\n' with
     | Some i when i < n ->
       Buffer.add_subbytes mc.m_in chunk 0 i;
       respond ()
     | _ -> Buffer.add_subbytes mc.m_in chunk 0 n)

let mclient_flush mc =
  let len = min (Buffer.length mc.m_out - mc.m_off) 65536 in
  if len > 0 then
    match
      Unix.write_substring mc.m_fd (Buffer.contents mc.m_out) mc.m_off len
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> mc.m_dead <- true
    | n -> mc.m_off <- mc.m_off + n

(* Accept many simultaneous connections and multiplex them onto one
   engine with a single-domain select loop: read whatever is ready, drain
   the per-connection queues round-robin (fairness quantum), write
   whatever fits. Request execution is synchronous inside the loop, so
   requests from different clients serialize and each client's replies
   come back in its own request order. The optional metrics listener
   rides the same loop: its one-shot clients are read, answered from
   {!Server.snapshot} and flushed alongside the protocol clients. *)
let serve_socket srv sock ?metrics_sock max_clients =
  let clients : (Unix.file_descr, client) Hashtbl.t =
    Hashtbl.create 16
  in
  let mclients : (Unix.file_descr, mclient) Hashtbl.t = Hashtbl.create 8 in
  let chunk = Bytes.create 65536 in
  (* After shutdown executes, keep flushing pending replies for a bounded
     grace period; a peer that stops reading cannot wedge the exit. *)
  let flush_deadline = ref None in
  let fold f = Hashtbl.fold (fun _ c acc -> f c acc) clients [] in
  let accept_ready () =
    match Unix.accept sock with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
    | fd, _ ->
      if Hashtbl.length clients >= max_clients then begin
        (* full house: refuse before the greeting so the client sees an
           immediate EOF rather than a wedged stream *)
        Printf.eprintf "rtic: refusing connection (max-clients %d)\n%!"
          max_clients;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        let c =
          { fd;
            conn = Server.connect srv;
            inbuf = Buffer.create 256;
            out = Buffer.create 4096;
            out_off = 0;
            eof = false;
            dead = false }
        in
        Buffer.add_string c.out (Server.hello ^ "\n");
        Hashtbl.replace clients fd c
      end
  in
  let accept_metrics msock =
    match Unix.accept msock with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
    | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace mclients fd
        { m_fd = fd;
          m_in = Buffer.create 64;
          m_out = Buffer.create 4096;
          m_off = 0;
          m_ready = false;
          m_dead = false }
  in
  let close_mclient mc =
    Hashtbl.remove mclients mc.m_fd;
    try Unix.close mc.m_fd with Unix.Unix_error _ -> ()
  in
  let mfold f = Hashtbl.fold (fun _ mc acc -> f mc acc) mclients [] in
  let drain_round_robin () =
    let rec go () =
      let progressed =
        List.exists
          (fun x -> x)
          (fold (fun c acc ->
               let replies =
                 if c.dead then []
                 else Server.conn_drain ~limit:drain_quantum c.conn
               in
               List.iter
                 (fun r ->
                   Buffer.add_string c.out r;
                   Buffer.add_char c.out '\n')
                 replies;
               (replies <> []) :: acc))
      in
      if progressed then go ()
    in
    go ()
  in
  let finished () =
    Server.stopped srv
    && (Hashtbl.length clients = 0
        || (match !flush_deadline with
            | Some d -> Unix.gettimeofday () > d
            | None -> false))
  in
  while not (finished ()) do
    let stopped = Server.stopped srv in
    if stopped && !flush_deadline = None then
      flush_deadline := Some (Unix.gettimeofday () +. 5.0);
    let rds =
      (if stopped then [] else [ sock ])
      @ (match metrics_sock with
         | Some msock when not stopped -> [ msock ]
         | _ -> [])
      @ fold (fun c acc ->
            if (not stopped) && (not c.eof) && (not c.dead)
               && out_pending c < out_hiwater
            then c.fd :: acc
            else acc)
      @ mfold (fun mc acc ->
            if (not mc.m_ready) && not mc.m_dead then mc.m_fd :: acc
            else acc)
    in
    let wrs =
      fold (fun c acc -> if out_pending c > 0 && not c.dead then c.fd :: acc else acc)
      @ mfold (fun mc acc ->
            if Buffer.length mc.m_out - mc.m_off > 0 && not mc.m_dead then
              mc.m_fd :: acc
            else acc)
    in
    (match Unix.select rds wrs [] 0.5 with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | rs, ws, _ ->
       List.iter
         (fun fd ->
           if fd = sock then accept_ready ()
           else if metrics_sock = Some fd then accept_metrics fd
           else
             match Hashtbl.find_opt clients fd with
             | Some c -> read_client c chunk
             | None ->
               (match Hashtbl.find_opt mclients fd with
                | Some mc -> mclient_read srv mc chunk
                | None -> ()))
         rs;
       drain_round_robin ();
       List.iter
         (fun fd ->
           match Hashtbl.find_opt clients fd with
           | Some c -> flush_client c
           | None ->
             (match Hashtbl.find_opt mclients fd with
              | Some mc -> mclient_flush mc
              | None -> ()))
         ws;
       (* reap: failed connections at once; EOF'd (or post-shutdown) ones
          when their replies are flushed; one-shot metrics clients as soon
          as their single response went out *)
       List.iter
         (fun c ->
           if c.dead then close_client clients c
           else if (c.eof || Server.stopped srv)
                   && out_pending c = 0
                   && Server.conn_pending c.conn = 0
           then close_client clients c)
         (fold List.cons);
       List.iter
         (fun mc ->
           if mc.m_dead
              || (mc.m_ready && mc.m_off = Buffer.length mc.m_out)
           then close_mclient mc)
         (mfold List.cons))
  done;
  Hashtbl.iter (fun _ c -> (try Unix.close c.fd with Unix.Unix_error _ -> ())) clients;
  Hashtbl.iter (fun _ mc -> (try Unix.close mc.m_fd with Unix.Unix_error _ -> ())) mclients

(* A socket path that already exists either belongs to a live server
   (refuse: two servers must not race for one path) or is a stale
   leftover from a crash (unlink and proceed: a SIGKILL'd server gets no
   chance to clean up). A connect probe tells the two apart. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    (match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> ()
     | _ ->
       usage_error
         (path
          ^ " already exists and is not a socket; remove it or pick \
             another socket path"));
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () ->
          try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false)
    in
    if live then
      usage_error
        (path ^ " already has a live server; pick another socket path");
    Printf.eprintf "rtic: removing stale socket %s\n%!" path;
    try Sys.remove path with Sys_error _ -> ()
  end

let run_serve socket metrics_socket jobs max_pending max_clients trace_out =
  if jobs < 1 then usage_error "--jobs must be at least 1";
  if max_pending < 1 then usage_error "--max-pending must be at least 1";
  if max_clients < 1 then usage_error "--max-clients must be at least 1";
  (match trace_out with
   | Some "-" ->
     usage_error
       "--trace-out - is not supported by serve (stdout carries replies); \
        give a file"
   | _ -> ());
  (match (metrics_socket, socket) with
   | Some _, None ->
     usage_error "--metrics-socket requires --socket (the stdin/stdout \
                  transport has no select loop to serve it from)"
   | Some m, Some s when m = s ->
     usage_error "--metrics-socket must differ from --socket"
   | _ -> ());
  (match socket with
   | Some path -> claim_socket_path path
   | None -> ());
  (match metrics_socket with
   | Some path -> claim_socket_path path
   | None -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Terminated)))
    [ Sys.sigterm; Sys.sigint ];
  let trace_oc = Option.map open_out trace_out in
  let tracer =
    Option.map
      (fun oc ->
        Tracer.create
          ~emit:(fun line ->
            output_string oc line;
            output_char oc '\n')
          ())
      trace_oc
  in
  let pool = if jobs > 1 then Some (Pool.create jobs) else None in
  let srv =
    Server.create ?tracer ?pool ~config:{ Server.max_pending; telemetry = true } ()
  in
  (* Every exit path — clean shutdown, SIGTERM/SIGINT, a connection-level
     exception, even an engine bug — runs the same cleanup: sockets
     closed, the socket file unlinked, worker domains joined, the span
     trace flushed (a truncated stream would be unreadable). *)
  Fun.protect
    ~finally:(fun () ->
      Option.iter Pool.shutdown pool;
      match trace_oc with Some oc -> close_out_noerr oc | None -> ())
    (fun () ->
      let body () =
        match socket with
        | None ->
          pump_stream srv
            ~read:(fun b -> Unix.read Unix.stdin b 0 (Bytes.length b))
            ~write:(write_all Unix.stdout)
        | Some path ->
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          (* unlink only paths this process actually bound *)
          let listener p =
            let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            match Unix.bind sock (Unix.ADDR_UNIX p) with
            | () -> sock
            | exception e ->
              (try Unix.close sock with Unix.Unix_error _ -> ());
              raise e
          in
          let sock = listener path in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close sock with Unix.Unix_error _ -> ());
              try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Unix.listen sock 64;
              Unix.set_nonblock sock;
              match metrics_socket with
              | None ->
                Printf.eprintf "rtic: serving on %s\n%!" path;
                serve_socket srv sock max_clients
              | Some mpath ->
                let msock = listener mpath in
                Fun.protect
                  ~finally:(fun () ->
                    (try Unix.close msock with Unix.Unix_error _ -> ());
                    try Sys.remove mpath with Sys_error _ -> ())
                  (fun () ->
                    Unix.listen msock 64;
                    Unix.set_nonblock msock;
                    Printf.eprintf "rtic: serving on %s\n%!" path;
                    Printf.eprintf "rtic: metrics on %s\n%!" mpath;
                    serve_socket srv sock ~metrics_sock:msock max_clients))
      in
      try body ()
      with Terminated ->
        Printf.eprintf "rtic: terminated, shutting down\n%!");
  0

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* One-shot fetch from a serve --metrics-socket: send one request line,
   read to EOF (the server answers once and closes). *)
let fetch_metrics path mode =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
      | () ->
        write_all fd (mode ^ "\n");
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 65536 in
        let rec go () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        in
        go ();
        Ok (Buffer.contents buf))

let render_top (snap : Telemetry.snapshot) =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let rate w rates =
    match List.assoc_opt w rates with Some r -> r | None -> 0.0
  in
  line "rtic top - sessions %d  queue %d/%d  transactions %d%s"
    snap.Telemetry.session_count snap.Telemetry.queued
    snap.Telemetry.max_pending snap.Telemetry.transactions
    (if snap.Telemetry.stopped then "  [shutting down]" else "");
  line "server txn/s: 1s %.1f  10s %.1f  60s %.1f"
    (rate 1 snap.Telemetry.rates)
    (rate 10 snap.Telemetry.rates)
    (rate 60 snap.Telemetry.rates);
  line "";
  line "%-20s %-11s %9s %6s %8s %9s %8s %9s" "SESSION" "HEALTH" "TXNS"
    "VIOL" "TXN/S" "P99(us)" "AUX" "WAL-B";
  List.iter
    (fun (s : Telemetry.session) ->
      let gauge k =
        match List.assoc_opt k s.Telemetry.gauges with
        | Some v -> v
        | None -> 0
      in
      let p99 =
        match s.Telemetry.latency with
        | Some l -> Printf.sprintf "%.1f" (l.Metrics.p99_ns /. 1e3)
        | None -> "-"
      in
      line "%-20s %-11s %9d %6d %8.1f %9s %8d %9d" s.Telemetry.name
        s.Telemetry.health s.Telemetry.transactions s.Telemetry.violations
        (rate 1 s.Telemetry.rates)
        p99
        (gauge "aux_size")
        (gauge "wal_bytes_since_checkpoint"))
    snap.Telemetry.sessions;
  Buffer.contents b

let run_top socket once as_json as_prom interval =
  if as_json && as_prom then
    usage_error "--json and --prom are mutually exclusive";
  if interval <= 0.0 then usage_error "--interval must be positive";
  let mode = if as_prom then "prom" else "json" in
  let show () =
    let body = or_die (fetch_metrics socket mode) in
    if as_json || as_prom then print_string body
    else begin
      let snap = or_die (Telemetry.of_string body) in
      if not once then
        (* clear the screen and home the cursor between refreshes *)
        print_string "\027[2J\027[H";
      print_string (render_top snap)
    end;
    flush stdout
  in
  if once then show ()
  else begin
    Sys.catch_break true;
    (try
       while true do
         show ();
         Unix.sleepf interval
       done
     with Sys.Break -> ());
    ()
  end;
  0

(* ------------------------------------------------------------------ *)
(* rules                                                               *)
(* ------------------------------------------------------------------ *)

let run_rules spec_file =
  let spec = or_die (load_spec spec_file) in
  List.iter
    (fun (d : Formula.def) ->
      Format.printf "constraint %s:@." d.name;
      match Compile.compile spec.Parser.catalog d with
      | Error m -> Format.printf "  cannot compile: %s@." m
      | Ok prog ->
        List.iter
          (fun s -> Format.printf "  table %a@." Schema.pp s)
          (Schema.Catalog.schemas (Compile.aux_catalog prog));
        List.iter
          (fun (r : Compile.rule_desc) ->
            Format.printf "  rule %s (for %s):@.    %s@." r.rule_name
              r.on_formula r.description)
          (Compile.rules prog))
    spec.Parser.defs;
  0

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let run_explain spec_file trace_file name limit =
  let spec = or_die (load_spec spec_file) in
  let tr = or_die (load_trace trace_file) in
  let d =
    match
      List.find_opt (fun (d : Formula.def) -> d.name = name) spec.Parser.defs
    with
    | Some d -> d
    | None -> usage_error (Printf.sprintf "no constraint named %s" name)
  in
  let h = or_die (Trace.materialize tr) in
  let viols = or_die (Naive.violations h d) in
  if viols = [] then begin
    Printf.printf "constraint %s holds at every position\n" name;
    0
  end
  else begin
    List.iter
      (fun i ->
        Format.printf "@.violated at position %d (time %d)@." i
          (History.time h i);
        (* For the common shape  not (exists ...)  show the witnesses of the
           negated body, with the quantifier stripped so the variable
           bindings are visible. *)
        match Rewrite.normalize d.body with
        | Formula.Not (Formula.Exists (_, g)) | Formula.Not g ->
          (match Naive.eval h i g with
           | Ok vr ->
             let witnesses = Valrel.bindings vr in
             let shown = List.filteri (fun k _ -> k < limit) witnesses in
             List.iter
               (fun bindings ->
                 let parts =
                   List.map
                     (fun (v, value) ->
                       Printf.sprintf "%s = %s" v
                         (Rtic_relational.Value.to_string value))
                     bindings
                 in
                 Format.printf "  witness: %s@."
                   (if parts = [] then "(propositional)"
                    else String.concat ", " parts))
               shown;
             if List.length witnesses > limit then
               Format.printf "  ... and %d more@."
                 (List.length witnesses - limit)
           | Error m -> Format.printf "  (no witnesses: %s)@." m)
        | _ -> Format.printf "  (constraint is not of the form 'not (...)')@.")
      viols;
    1
  end

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

(* Evaluate an ad-hoc (possibly open) formula at one position of a trace
   and print the verdict or the witnesses. Single-state (non-temporal,
   non-transition) formulas run through the Codd compiler on the planned
   relational algebra — the indexed path; anything the compiler rejects
   falls back to the naive evaluator, which agrees with it by the codd
   agreement property. *)
let run_query spec_file trace_file formula_src at limit no_plan =
  let spec = or_die (load_spec spec_file) in
  let tr = or_die (load_trace trace_file) in
  let f = or_die (Parser.formula_of_string formula_src) in
  (match Rtic_mtl.Typecheck.check spec.Parser.catalog f with
   | Ok _ -> ()
   | Error m -> usage_error ("ill-typed query: " ^ m));
  let h = or_die (Trace.materialize tr) in
  let i =
    match at with
    | Some i when i >= 0 && i < History.length h -> i
    | Some i ->
      usage_error
        (Printf.sprintf "position %d out of range (0..%d)" i (History.last h))
    | None -> History.last h
  in
  let vr =
    match Codd.eval_via_algebra ~plan:(not no_plan) (History.db h i) f with
    | Ok vr -> vr
    | Error _ ->
      (* not single-state (or a runtime error the naive evaluator will
         reproduce verbatim): evaluate over the history *)
      or_die (Naive.eval h i f)
  in
  Format.printf "at position %d (time %d): " i (History.time h i);
  if Array.length (Valrel.cols vr) = 0 then begin
    Format.printf "%b@." (Valrel.holds vr);
    if Valrel.holds vr then 0 else 1
  end
  else begin
    Format.printf "%d witness(es)@." (Valrel.cardinal vr);
    List.iteri
      (fun k bindings ->
        if k < limit then
          Format.printf "  %s@."
            (String.concat ", "
               (List.map
                  (fun (v, value) ->
                    Printf.sprintf "%s = %s" v
                      (Rtic_relational.Value.to_string value))
                  bindings)))
      (Valrel.bindings vr);
    if Valrel.cardinal vr > limit then
      Format.printf "  ... and %d more@." (Valrel.cardinal vr - limit);
    if Valrel.holds vr then 0 else 1
  end

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let run_gen scenario steps seed rate out spec_out =
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  let trace_text, spec_text =
    if scenario = "generic" then
      let tr =
        Gen.random_trace ~seed { Gen.default_params with steps }
      in
      (Trace.to_string tr, "")
    else
      match
        List.find_opt (fun (s : Scenarios.t) -> s.name = scenario) Scenarios.all
      with
      | None ->
        usage_error
          (Printf.sprintf
             "unknown scenario %s (expected banking, library, monitoring or \
              generic)"
             scenario)
      | Some sc ->
        let tr = sc.generate ~seed ~steps ~violation_rate:rate in
        let spec =
          String.concat "\n"
            (List.map Rtic_relational.Textio.schema_to_string
               (Schema.Catalog.schemas sc.catalog)
             @ List.map Pretty.def_to_string sc.constraints)
          ^ "\n"
        in
        (Trace.to_string tr, spec)
  in
  (match out with
   | Some path -> write path trace_text
   | None -> print_string trace_text);
  (match spec_out with
   | Some path when spec_text <> "" -> write path spec_text
   | Some _ ->
     Printf.eprintf "rtic: the generic scenario has no constraint spec\n"
   | None -> ());
  0

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let spec_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC"
         ~doc:"Specification file (schemas and constraints).")

let trace_pos n =
  Arg.(required & pos n (some file) None & info [] ~docv:"TRACE"
         ~doc:"Trace file (timestamped transactions).")

let parse_cmd =
  let doc = "validate a specification file and report monitorability" in
  Cmd.v (Cmd.info "parse" ~doc) Term.(const run_parse $ spec_arg)

let engine_arg =
  let engines =
    Arg.enum
      [ ("incremental", E_incremental); ("shared", E_shared);
        ("naive", E_naive); ("active", E_active); ("future", E_future) ]
  in
  Arg.(value & opt engines E_incremental & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Checker to use: $(b,incremental) (bounded history encoding), \
               $(b,shared) (one kernel for all constraints, subformulas \
               shared), $(b,naive) (full history baseline), $(b,active) \
               (compiled rules), or $(b,future) (verdict delay; required \
               for bounded-future constraints).")

let no_prune_arg =
  Arg.(value & flag & info [ "no-prune" ]
         ~doc:"Disable the bounded-history-encoding pruning (ablation; \
               verdicts are unchanged, auxiliary space grows).")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Check constraints on $(docv) worker domains: the constraint \
               set is sharded across a fixed pool and every transaction \
               fans out to all shards, with verdicts merged back in \
               registration order — reports, statistics and exit codes are \
               identical to a sequential run. $(b,1) (the default) is the \
               sequential path. Engines incremental and shared.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary line.")

let load_state_arg =
  Arg.(value & opt (some file) None & info [ "load-state" ] ~docv:"FILE"
         ~doc:"Resume from a monitor checkpoint written by --save-state; the \
               trace should then hold only the transactions that were not \
               yet processed. Incremental engine only.")

let save_state_arg =
  Arg.(value & opt (some string) None & info [ "save-state" ] ~docv:"FILE"
         ~doc:"After processing the trace, write the monitor state (the \
               bounded history encoding) here. Incremental engine only.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print run statistics (transactions, violations per \
               constraint, peak auxiliary space) and the kernel metrics \
               (formula-cache hits, step-latency percentiles, per-node \
               auxiliary gauges). Incremental engine only.")

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the run statistics as a JSON document (schema \
               rtic-stats/1, see FORMATS.md) instead of any human-readable \
               output; implies --stats. The document is the only stdout \
               output; the exit code is unchanged.")

let trace_flag_arg =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Log one line per transaction (time, violation count, \
               auxiliary space) to stderr while checking.")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Stream a structured span trace (JSONL, schema rtic-trace/1, \
               see FORMATS.md) of the run to $(docv); $(b,-) streams to \
               stdout (human output then moves to stderr, so the stream \
               pipes straight into $(b,rtic profile)). Engines \
               incremental, shared and future.")

let state_dir_arg =
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Run as a crash-safe service: append every accepted \
               transaction to a write-ahead log in $(docv) and checkpoint \
               the monitor state there periodically. If $(docv) already \
               holds state, recover from it first (checkpoint + WAL \
               replay) and skip trace transactions that were already \
               processed. Incremental engine, past-only constraints.")

let auto_checkpoint_arg =
  Arg.(value & opt int 64 & info [ "auto-checkpoint" ] ~docv:"N"
         ~doc:"With --state-dir: checkpoint every $(docv) accepted \
               transactions (0 disables; default 64).")

let on_error_arg =
  Arg.(value & opt string "halt" & info [ "on-error" ] ~docv:"POLICY"
         ~doc:"With --state-dir: what to do with a transaction the monitor \
               cannot simply accept — $(b,halt) (stop, exit 2), $(b,skip) \
               (drop silently), $(b,reject) (drop and report on stderr) or \
               $(b,repair) (self-heal: a constraint-violating transaction \
               commits together with a bounded founded repair, journaled \
               as one WAL record; past-anchored violations are reported \
               unrepairable; a run that only succeeded via repairs exits \
               3).")

let aux_budget_arg =
  Arg.(value & opt (some int) None & info [ "aux-budget" ] ~docv:"N"
         ~doc:"With --state-dir: quarantine any constraint whose auxiliary \
               state exceeds $(docv) entries; its verdicts become \
               inconclusive while the others keep full monitoring.")

let group_commit_arg =
  Arg.(value & opt int 1 & info [ "group-commit" ] ~docv:"N"
         ~doc:"With --state-dir: group commit — make accepted transactions \
               durable in batches of up to $(docv) WAL records per \
               write+sync, releasing their verdicts only once the batch is \
               on disk. 1 (the default) syncs every transaction; larger \
               values trade a bounded loss window (at most $(docv)-1 \
               unacknowledged transactions on a crash) for throughput.")

let wal_format_arg =
  Arg.(value & opt int 1 & info [ "wal-format" ] ~docv:"V"
         ~doc:"With --state-dir: WAL format version written when creating \
               a fresh state directory — 1 (text records, the default) or \
               2 (binary length-prefixed records, see FORMATS.md). An \
               existing directory keeps its format; $(b,rtic wal dump) \
               renders either as text.")

let check_cmd =
  let doc = "monitor a trace and report constraint violations" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run_check $ spec_arg $ trace_pos 1 $ engine_arg $ no_prune_arg
          $ jobs_arg $ quiet_arg $ load_state_arg $ save_state_arg $ stats_arg
          $ json_arg $ trace_flag_arg $ trace_out_arg $ state_dir_arg
          $ auto_checkpoint_arg $ on_error_arg $ aux_budget_arg
          $ group_commit_arg $ wal_format_arg)

let recover_cmd =
  let doc = "inspect (and optionally salvage) a crash-safe state directory" in
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR"
           ~doc:"State directory written by check --state-dir.")
  in
  let repair_arg =
    Arg.(value & flag & info [ "repair" ]
           ~doc:"After recovering, write a fresh checkpoint and compact \
                 the WAL (clears torn tails and prunes corrupt snapshots' \
                 influence). Without it the directory is not modified. \
                 This salvages $(b,storage) only — it never changes \
                 database content; to heal constraint $(b,violations) in \
                 the data, see $(b,rtic repair).")
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const run_recover $ spec_arg $ dir_arg $ repair_arg)

let repair_cmd =
  let doc =
    "search for (and optionally apply) constraint repairs of a recovered \
     state"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Recover the state directory, then run a bounded search for a \
         founded minimal set of inserts/deletes that restores every \
         violated constraint at the next commit time. Without $(b,--apply) \
         the repair is only proposed; with it, the repair commits through \
         the supervisor and is journaled in the write-ahead log, so any \
         later recovery replays it. Violations whose verdict is anchored \
         entirely in past states are reported $(b,unrepairable) with the \
         offending subformula; an exhausted search budget is reported \
         $(b,inconclusive), never unrepairable.";
      `P
        "Distinct from $(b,rtic recover --repair), which salvages the \
         storage layer (fresh checkpoint, WAL compaction) and never \
         touches database content.";
      `S Manpage.s_exit_status;
      `P "0 — every constraint already holds; nothing to repair.";
      `P "1 — violations stand: unrepairable, or the search was \
          inconclusive.";
      `P "2 — usage or internal error.";
      `P "3 — a repair was found (and with --apply, committed)." ]
  in
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR"
           ~doc:"State directory written by check --state-dir.")
  in
  let apply_arg =
    Arg.(value & flag & info [ "apply" ]
           ~doc:"Commit the repair through the supervisor (WAL-journaled) \
                 instead of only proposing it.")
  in
  let at_time_arg =
    Arg.(value & opt (some int) None & info [ "at-time" ] ~docv:"T"
           ~doc:"Commit time to repair at (must be after the last accepted \
                 transaction; default: last + 1).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the repair report as JSON (schema rtic-repair/1, see \
                 FORMATS.md §8) instead of human-readable output.")
  in
  let max_steps_arg =
    Arg.(value & opt int Repair.default_budget.Repair.max_steps
         & info [ "max-steps" ] ~docv:"N"
             ~doc:"Oracle budget: total checker probes the search may \
                   spend before reporting inconclusive.")
  in
  let max_candidates_arg =
    Arg.(value & opt int Repair.default_budget.Repair.max_candidates
         & info [ "max-candidates" ] ~docv:"N"
             ~doc:"Candidate actions generated per search state.")
  in
  let max_depth_arg =
    Arg.(value & opt int Repair.default_budget.Repair.max_depth
         & info [ "max-depth" ] ~docv:"N"
             ~doc:"Largest repair cardinality considered.")
  in
  Cmd.v (Cmd.info "repair" ~doc ~man)
    Term.(const run_repair $ spec_arg $ dir_arg $ apply_arg $ at_time_arg
          $ json_arg $ max_steps_arg $ max_candidates_arg $ max_depth_arg)

(* ------------------------------------------------------------------ *)
(* lint-json                                                           *)
(* ------------------------------------------------------------------ *)

let run_lint_json file =
  let text =
    match file with
    | Some path -> or_die (read_file path)
    | None -> In_channel.input_all stdin
  in
  match Json.of_string text with
  | Ok _ ->
    print_endline "valid JSON";
    0
  | Error m ->
    Printf.eprintf "rtic: invalid JSON: %s\n" m;
    1

let lint_json_cmd =
  let doc = "validate that a file (or stdin) is a single well-formed JSON \
             document" in
  let file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"File to validate (default: read stdin).")
  in
  Cmd.v (Cmd.info "lint-json" ~doc) Term.(const run_lint_json $ file_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* Aggregate an rtic-trace/1 stream (check --trace-out) into a
   per-span-identity time attribution: self time, total time, call count. *)
let run_profile file want_json want_collapsed =
  if want_json && want_collapsed then
    usage_error "--json and --collapsed are mutually exclusive";
  let text =
    match file with
    | Some path -> or_die (read_file path)
    | None -> In_channel.input_all stdin
  in
  match Profile.of_string text with
  | Error m ->
    Printf.eprintf "rtic: bad trace: %s\n" m;
    exit 2
  | Ok p ->
    if want_collapsed then print_string (Profile.to_collapsed p)
    else if want_json then
      print_endline (Json.to_string ~indent:true (Profile.to_json p))
    else Format.printf "%a@." Profile.pp p;
    0

let profile_cmd =
  let doc = "aggregate a span trace into a per-constraint time profile" in
  let file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"rtic-trace/1 stream written by check --trace-out \
                 (default: read stdin).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the profile as a JSON document (schema \
                 rtic-profile/1, see FORMATS.md).")
  in
  let collapsed_arg =
    Arg.(value & flag & info [ "collapsed" ]
           ~doc:"Emit collapsed-stack lines (one $(b,frame;frame;frame \
                 self_ns) per stack) for flamegraph tools.")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run_profile $ file_arg $ json_arg $ collapsed_arg)

let rules_cmd =
  let doc = "show the active-DBMS rules a constraint compiles to" in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const run_rules $ spec_arg)

let explain_cmd =
  let doc = "show the violating positions of one constraint, with witnesses" in
  let name_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"CONSTRAINT"
           ~doc:"Constraint name.")
  in
  let limit_arg =
    Arg.(value & opt int 10 & info [ "limit" ] ~doc:"Witnesses to print.")
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run_explain $ spec_arg $ trace_pos 1 $ name_arg $ limit_arg)

let query_cmd =
  let doc = "evaluate an ad-hoc formula at a position of a trace" in
  let formula_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"FORMULA"
           ~doc:"The formula, in constraint concrete syntax (may be open; \
                 witnesses are printed).")
  in
  let at_arg =
    Arg.(value & opt (some int) None & info [ "at" ] ~docv:"POS"
           ~doc:"0-based position to evaluate at (default: the last state).")
  in
  let limit_arg =
    Arg.(value & opt int 10 & info [ "limit" ] ~doc:"Witnesses to print.")
  in
  let no_plan_arg =
    Arg.(value & flag & info [ "no-plan" ]
           ~doc:"Evaluate single-state queries on the unplanned relational \
                 algebra (no selection pushdown or join reordering). \
                 Escape hatch; results are identical either way.")
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run_query $ spec_arg $ trace_pos 1 $ formula_arg $ at_arg
          $ limit_arg $ no_plan_arg)

let serve_cmd =
  let doc = "run the monitor as a long-lived service (rtic-serve/1)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Accepts the line-oriented $(b,rtic-serve/1) request protocol (see \
         FORMATS.md §7) over stdin/stdout, or over a Unix-domain socket \
         with $(b,--socket). Requests open named sessions (each a \
         crash-safe supervised monitor, as $(b,check --state-dir)), feed \
         them transactions, query statistics, checkpoint, close, and shut \
         the server down; every request gets one single-line JSON reply. \
         $(b,tools/drive.exe) is the matching load client." ]
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of \
                 stdin/stdout, serving many simultaneous connections; \
                 sessions are shared across connections and persist when a \
                 client disconnects. A stale socket file left by a crashed \
                 server is detected (connect probe) and replaced; a path \
                 held by a live server is refused. The file is removed on \
                 every exit — clean shutdown, SIGTERM/SIGINT, or a crash \
                 of the serving loop.")
  in
  let metrics_socket_arg =
    Arg.(value & opt (some string) None & info [ "metrics-socket" ]
           ~docv:"PATH"
           ~doc:"With --socket: also listen on a read-only telemetry \
                 socket at $(docv), served from the same loop. Each \
                 connection is one-shot: send $(b,json) for an \
                 $(b,rtic-metrics/1) snapshot, anything else (including \
                 an HTTP GET from a Prometheus scraper) for Prometheus \
                 text exposition. Scrapes bypass the request queue and \
                 the admission budget. $(b,rtic top) is the matching \
                 dashboard.")
  in
  let max_pending_arg =
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N"
           ~doc:"Admission control: at most $(docv) parsed requests may \
                 await execution, across all connections; a pipelined \
                 burst beyond that gets explicit $(b,overloaded) error \
                 replies (never silent drops).")
  in
  let max_clients_arg =
    Arg.(value & opt int 64 & info [ "max-clients" ] ~docv:"N"
           ~doc:"With --socket: accept at most $(docv) simultaneous \
                 connections; further connects are closed immediately \
                 (the client sees EOF before the greeting).")
  in
  let serve_trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Stream a structured span trace (JSONL, schema \
                 rtic-trace/1) of every executed request to $(docv).")
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run_serve $ socket_arg $ metrics_socket_arg $ jobs_arg
          $ max_pending_arg $ max_clients_arg $ serve_trace_out_arg)

let top_cmd =
  let doc = "live dashboard over a running rtic serve --metrics-socket" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Polls the read-only telemetry socket of a running $(b,rtic serve \
         --socket ... --metrics-socket PATH) server and renders a \
         one-screen dashboard: per-session throughput, p99 check latency, \
         auxiliary-space and WAL gauges, queue depth and health. With \
         $(b,--once --json) it prints a single raw $(b,rtic-metrics/1) \
         snapshot and exits — the scripting interface. Scrapes bypass \
         the request queue, so the dashboard keeps refreshing even when \
         the server is saturated." ]
  in
  let socket_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
           ~doc:"The --metrics-socket path of the server to watch.")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Take one snapshot, print it, exit.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the raw rtic-metrics/1 JSON document instead of \
                 the dashboard.")
  in
  let prom_arg =
    Arg.(value & flag & info [ "prom" ]
           ~doc:"Print the Prometheus text exposition instead of the \
                 dashboard.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Refresh period without --once.")
  in
  Cmd.v (Cmd.info "top" ~doc ~man)
    Term.(const run_top $ socket_arg $ once_arg $ json_arg $ prom_arg
          $ interval_arg)

let gen_cmd =
  let doc = "generate a synthetic trace (and spec) for a scenario" in
  let scenario_arg =
    Arg.(value & opt string "generic" & info [ "scenario" ] ~docv:"NAME"
           ~doc:"banking, library, monitoring or generic.")
  in
  let steps_arg =
    Arg.(value & opt int 100 & info [ "steps" ] ~doc:"Transactions to generate.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let rate_arg =
    Arg.(value & opt float 0.0 & info [ "violation-rate" ]
           ~doc:"Probability of injecting a violation per step.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ]
           ~docv:"FILE" ~doc:"Write the trace here (default stdout).")
  in
  let spec_out_arg =
    Arg.(value & opt (some string) None & info [ "spec-out" ]
           ~docv:"FILE" ~doc:"Also write the scenario's spec file here.")
  in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run_gen $ scenario_arg $ steps_arg $ seed_arg $ rate_arg
          $ out_arg $ spec_out_arg)

let wal_cmd =
  let doc = "inspect write-ahead log files" in
  let dump_cmd =
    let doc =
      "render a WAL file (rtic-wal/1 or rtic-wal/2) as rtic-wal/1 text"
    in
    let file_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
             ~doc:"The wal.log to dump (from a --state-dir directory).")
    in
    Cmd.v (Cmd.info "dump" ~doc) Term.(const run_wal_dump $ file_arg)
  in
  Cmd.group (Cmd.info "wal" ~doc) [ dump_cmd ]

let main_cmd =
  let doc = "real-time integrity constraints over timed database histories" in
  Cmd.group (Cmd.info "rtic" ~version:"1.0.0" ~doc)
    [ parse_cmd; check_cmd; serve_cmd; top_cmd; recover_cmd; repair_cmd;
      profile_cmd; rules_cmd; explain_cmd; query_cmd; gen_cmd;
      lint_json_cmd; wal_cmd ]

let () = exit (Cmd.eval' main_cmd)
