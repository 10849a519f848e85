(* Crash-safe monitoring service. See supervisor.mli for the design; the
   invariants the code below maintains are:

   - WAL write + sync happen before verdict *delivery* (the durability
     point): with group commit the record is buffered and the outcome
     queued, and no outcome is released to the caller until the batch
     holding its record has been written and synced;
   - at most [group_commit - 1] accepted-but-unreleased transactions can
     be lost by a clean crash (the unflushed window); an outcome the
     caller has seen is never lost by a clean crash;
   - checkpoint files only ever appear complete (temp-then-rename) and
     carry a whole-file CRC trailer;
   - the WAL only loses records from the front, and only after a newer
     checkpoint is durable;
   - record indices in the WAL are contiguous: once an append fails the
     supervisor stops appending (degraded) until a successful checkpoint
     re-establishes a consistent log, rather than leaving a silent gap
     that would make replay attribute wrong indices;
   - the persistent append handle is closed before compaction renames a
     fresh log into place (a held descriptor would keep appending to the
     unlinked inode) and reopened lazily afterwards;
   - quarantine is a pure function of checker space vs the budget, so it
     never needs persisting. *)

module Database = Rtic_relational.Database
module Update = Rtic_relational.Update
module Formula = Rtic_mtl.Formula

let ( let* ) r f = Result.bind r f

type policy = Halt | Skip | Reject | Repair

let policy_of_string = function
  | "halt" -> Ok Halt
  | "skip" -> Ok Skip
  | "reject" -> Ok Reject
  | "repair" -> Ok Repair
  | s ->
    Error (Printf.sprintf "unknown error policy %S (halt|skip|reject|repair)" s)

let policy_to_string = function
  | Halt -> "halt"
  | Skip -> "skip"
  | Reject -> "reject"
  | Repair -> "repair"

type config = {
  auto_checkpoint : int;
  retain : int;
  on_error : policy;
  aux_budget : int option;
  group_commit : int;  (* records per write+sync batch; 1 = every txn *)
  flush_ms : int;  (* release a short batch once this old; 0 = never *)
  wal_format : int;  (* WAL version written at creation: 1 | 2 *)
}

let default_config =
  { auto_checkpoint = 64;
    retain = 2;
    on_error = Halt;
    aux_budget = None;
    group_commit = 1;
    flush_ms = 0;
    wal_format = 1 }

type outcome =
  | Checked of {
      reports : Monitor.report list;
      inconclusive : string list;
    }
  | Skipped of string
  | Rejected of string
  | Repaired of {
      actions : Update.op list;
      witnesses : (Update.op * string) list;
      repaired : Monitor.report list;
      inconclusive : string list;
    }
  | Unrepairable of {
      reports : Monitor.report list;
      unrepairable : (string * string) list;
      inconclusive : string list;
    }

type t = {
  fs : Faults.fs;
  cfg : config;
  dir : string;
  metrics : Metrics.t option;
  tracer : Tracer.t option;
  mutable mon : Monitor.t;  (* the database and every checker *)
  mutable quarantine : (string * string) list;  (* registration order *)
  mutable accepted : int;  (* global WAL index of the next record *)
  mutable last : int option;  (* commit time of the last accepted txn *)
  mutable since_ck : int;
  mutable wal_bytes : int;  (* appended since the last checkpoint/recovery *)
  mutable degraded : bool;
  wal_version : int;  (* sticky per directory: set at create/recover *)
  mutable wal_out : Faults.handle option;  (* persistent append handle *)
  pending_buf : Buffer.t;  (* encoded records awaiting write+sync *)
  mutable pending_records : int;
  mutable pending_outs_rev : outcome list;  (* acks awaiting release *)
  mutable batch_t0 : float;  (* wall clock at the first buffered record *)
}

let bump ?by t name = Option.iter (fun m -> Metrics.bump ?by m name) t.metrics

(* Durability suspension is a state transition worth a trace event; only
   the entry edge is emitted, re-failures while already degraded are not. *)
let enter_degraded t ~why =
  if not t.degraded then
    Tracer.point t.tracer ~cat:"supervisor" ~name:"degraded" ~arg:why ();
  t.degraded <- true

(* ---------------- Paths ---------------- *)

let wal_path dir = Filename.concat dir "wal.log"

let checkpoint_path dir step =
  Filename.concat dir (Printf.sprintf "checkpoint-%09d.ck" step)

let checkpoint_step_of_name name =
  let pre = "checkpoint-" and suf = ".ck" in
  let lp = String.length pre and ls = String.length suf in
  let ln = String.length name in
  if
    ln > lp + ls
    && String.sub name 0 lp = pre
    && String.sub name (ln - ls) ls = suf
  then int_of_string_opt (String.sub name lp (ln - lp - ls))
  else None

let checkpoint_files (fs : Faults.fs) dir =
  match fs.list_dir dir with
  | Error _ -> []
  | Ok names ->
    List.filter_map
      (fun n ->
        Option.map
          (fun step -> (step, Filename.concat dir n))
          (checkpoint_step_of_name n))
      names
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let state_exists (fs : Faults.fs) dir = fs.exists (wal_path dir)

(* ---------------- Checkpoint files ----------------

   A supervisor-written checkpoint is Monitor.to_text followed by a
   trailer of "# "-prefixed lines:

     # accepted <N>
     # last_time <T|none>
     # crc32 <8 hex digits>      (always last; covers everything above)

   The CRC turns any bit flip anywhere in the file into a load error —
   Monitor.of_text's structural checks alone cannot see a flipped digit
   inside a stored value. Files without a trailer (plain --save-state
   output) are still accepted; their step comes from the filename and
   their last_time from the restored checkers. *)

type snapshot = {
  snap_step : int;
  snap_monitor : Monitor.t;
  snap_last_time : int option;
}

let checkpoint_text mon ~accepted ~last =
  let body =
    Printf.sprintf "%s# accepted %d\n# last_time %s\n" (Monitor.to_text mon)
      accepted
      (match last with Some t -> string_of_int t | None -> "none")
  in
  Printf.sprintf "%s# crc32 %08x\n" body (Wal.crc32 body)

let load_checkpoint_text ?metrics ?tracer ?pool cat defs ~step text =
  let fail fmt = Printf.ksprintf (fun m -> Error ("checkpoint: " ^ m)) fmt in
  let lines = String.split_on_char '\n' text in
  let rev = match List.rev lines with "" :: r -> r | r -> r in
  let is_meta l = String.length l >= 2 && String.sub l 0 2 = "# " in
  let rec take_meta meta = function
    | l :: rest when is_meta l -> take_meta (l :: meta) rest
    | rest -> (meta, rest)
  in
  let meta, body_rev = take_meta [] rev in
  (* Verify the CRC first: it covers the exact bytes before its own line. *)
  let* meta =
    match List.rev meta with
    | last :: rest_rev when String.length last > 8 && String.sub last 0 8 = "# crc32 "
      ->
      let rest = List.rev rest_rev in
      (match int_of_string_opt ("0x" ^ String.sub last 8 (String.length last - 8)) with
       | None -> fail "malformed crc32 trailer %S" last
       | Some claimed ->
         let covered =
           String.concat "\n" (List.rev_append body_rev rest) ^ "\n"
         in
         if Wal.crc32 covered <> claimed then
           fail "crc mismatch (stored %08x, computed %08x)" claimed
             (Wal.crc32 covered)
         else Ok rest)
    | meta ->
      (* No CRC trailer: tolerate (plain --save-state output), but then a
         supervisor meta line without its protecting CRC is suspicious. *)
      if meta = [] then Ok [] else fail "trailer lines without a crc32 line"
  in
  let* accepted, last =
    List.fold_left
      (fun acc l ->
        let* accepted, last = acc in
        match String.index_from_opt l 2 ' ' with
        | None -> fail "malformed trailer line %S" l
        | Some sp ->
          let key = String.sub l 2 (sp - 2) in
          let arg = String.sub l (sp + 1) (String.length l - sp - 1) in
          (match key with
           | "accepted" ->
             (match int_of_string_opt arg with
              | Some n when n >= 0 -> Ok (Some n, last)
              | _ -> fail "bad accepted %s" arg)
           | "last_time" ->
             if arg = "none" then Ok (accepted, None)
             else
               (match int_of_string_opt arg with
                | Some v -> Ok (accepted, Some v)
                | None -> fail "bad last_time %s" arg)
           | _ -> fail "unknown trailer key %s" key))
      (Ok (None, None))
      meta
  in
  let* () =
    match accepted with
    | Some n when n <> step ->
      fail "trailer says accepted %d but filename says %d" n step
    | _ -> Ok ()
  in
  let body = String.concat "\n" (List.rev body_rev) ^ "\n" in
  let* mon = Monitor.of_text ?metrics ?tracer ?pool cat defs body in
  let last =
    match last with
    | Some _ as l -> l
    | None ->
      (* No trailer: the freshest checker timestamp is the best bound. *)
      List.fold_left
        (fun acc c ->
          match (acc, Incremental.last_time c) with
          | None, l | l, None -> l
          | Some a, Some b -> Some (max a b))
        None
        (Monitor.checkers mon)
  in
  Ok { snap_step = step; snap_monitor = mon; snap_last_time = last }

let load_checkpoint ?metrics ?tracer ?pool ~(fs : Faults.fs) cat defs path =
  match checkpoint_step_of_name (Filename.basename path) with
  | None -> Error (Printf.sprintf "checkpoint: unrecognized filename %s" path)
  | Some step ->
    let* text = fs.read_file path in
    load_checkpoint_text ?metrics ?tracer ?pool cat defs ~step text

(* ---------------- Stepping ---------------- *)

let checker_name c = (Incremental.def c).Formula.name

let is_quarantined t name = List.mem_assoc name t.quarantine

(* Derive the quarantine set from checker spaces alone — used at recovery
   so the checkpoint is the whole state. *)
let derive_quarantine cfg checkers =
  match cfg.aux_budget with
  | None -> []
  | Some budget ->
    List.filter_map
      (fun c ->
        let sp = Incremental.space c in
        if sp > budget then
          Some
            ( checker_name c,
              Printf.sprintf "auxiliary space %d exceeds budget %d" sp budget
            )
        else None)
      checkers

(* Step every active checker on the already-updated database; freeze any
   whose space crosses the budget (its crossing verdict is still
   delivered — from the next transaction on it reports inconclusive). *)
let step_checkers t ~time db =
  let after c =
    match t.cfg.aux_budget with
    | Some budget when Incremental.space c > budget ->
      let name = checker_name c in
      t.quarantine <-
        t.quarantine
        @ [ ( name,
              Printf.sprintf "auxiliary space %d exceeds budget %d"
                (Incremental.space c) budget ) ];
      bump t "constraints_quarantined";
      Tracer.point t.tracer ~cat:"supervisor" ~name:"quarantine" ~arg:name ()
    | _ -> ()
  in
  let* mon, reports =
    Monitor.check ~skip:(is_quarantined t) ~after t.mon ~time db
  in
  t.mon <- mon;
  t.accepted <- t.accepted + 1;
  t.last <- Some time;
  t.since_ck <- t.since_ck + 1;
  (match t.metrics with
   | None -> ()
   | Some m -> Metrics.add_violations m (List.length reports));
  Ok reports

(* ---------------- The commit queue ---------------- *)

let get_handle t =
  match t.wal_out with
  | Some h -> Ok h
  | None ->
    (match t.fs.open_append (wal_path t.dir) with
     | Ok h ->
       t.wal_out <- Some h;
       Ok h
     | Error _ as e -> e)

let close_handle t =
  match t.wal_out with
  | Some h ->
    h.Faults.h_close ();
    t.wal_out <- None
  | None -> ()

(* Buffer one record for the current batch. Nothing is written here —
   the durability point moved to [flush_records] — but a degraded
   supervisor must not buffer either, or a later recovery point would
   append records with a gap before them. *)
let append_wal t ~time txn =
  if not t.degraded then begin
    if t.pending_records = 0 then t.batch_t0 <- Unix.gettimeofday ();
    Buffer.add_string t.pending_buf
      (Wal.encode_record ~version:t.wal_version ~time txn);
    t.pending_records <- t.pending_records + 1
  end

(* Durability point: one write + one sync for the whole batch. On any
   failure the batch is dropped, the handle discarded (it may hold a
   half-written record) and the supervisor degrades — exactly the old
   per-record contract, at batch granularity. *)
let flush_records t =
  if t.pending_records > 0 then begin
    let data = Buffer.contents t.pending_buf in
    let n = t.pending_records in
    Buffer.clear t.pending_buf;
    t.pending_records <- 0;
    let res =
      Tracer.span t.tracer ~cat:"wal" ~name:"append" ~arg:(string_of_int n)
        (fun () ->
          let* h = get_handle t in
          let* () = h.Faults.h_write data in
          h.Faults.h_sync ())
    in
    match res with
    | Ok () ->
      bump ~by:n t "wal_records_appended";
      t.wal_bytes <- t.wal_bytes + String.length data
    | Error e ->
      bump t "wal_append_failures";
      close_handle t;
      enter_degraded t ~why:("wal append failed: " ^ e)
  end

(* Release every queued ack, oldest first. Only called once the records
   backing them are flushed (or dropped into degraded mode, where
   verdict delivery continues unlogged, as before). *)
let release_outs t =
  let outs = List.rev t.pending_outs_rev in
  t.pending_outs_rev <- [];
  outs

let flush t =
  flush_records t;
  release_outs t

(* Release the queue when it is due: the batch reached [group_commit]
   records, aged past [flush_ms], or there is nothing awaiting
   durability at all (policy outcomes with no record of their own). *)
let maybe_release t =
  let due =
    t.pending_records >= max 1 t.cfg.group_commit
    || (t.cfg.flush_ms > 0
        && t.pending_records > 0
        && (Unix.gettimeofday () -. t.batch_t0) *. 1000.0
           >= float_of_int t.cfg.flush_ms)
  in
  if due then flush_records t;
  if t.pending_records = 0 then release_outs t else []

(* ---------------- Checkpointing ---------------- *)

let oldest_retained t =
  match checkpoint_files t.fs t.dir with
  | [] -> t.accepted
  | files ->
    let keep = min t.cfg.retain (List.length files) in
    fst (List.nth files (keep - 1))

(* Rewrite the WAL so it holds exactly the records for
   [oldest retained checkpoint, accepted) — or, if the on-disk log cannot
   supply them (torn tail, or appends lost while degraded), an empty log
   starting at [accepted]: the fresh checkpoint alone carries the state,
   and a log with a silent gap must never be left behind. *)
let compact_wal t =
  let oldest = oldest_retained t in
  let version = t.wal_version in
  let give_up () = Wal.encode ~version ~start:t.accepted [] in
  let text =
    match t.fs.read_file (wal_path t.dir) with
    | Error _ -> give_up ()
    | Ok text ->
      (match Wal.recover text with
       | Error _ -> give_up ()
       | Ok w ->
         let e = w.Wal.start + List.length w.Wal.records in
         if w.Wal.start <= oldest && e >= t.accepted then
           let rec drop n l =
             if n <= 0 then l
             else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
           in
           Wal.encode ~version ~start:oldest
             (drop (oldest - w.Wal.start) w.Wal.records)
         else give_up ())
  in
  let tmp = Filename.concat t.dir ".wal.tmp" in
  let* () = t.fs.write_file tmp text in
  (* The held append fd (if any) points at the file being replaced; keep
     it across the rename and later appends would land on the unlinked
     inode. Close now, reopen lazily at the next flush. *)
  close_handle t;
  let* () = t.fs.rename tmp (wal_path t.dir) in
  bump t "wal_compactions";
  Ok ()

let checkpoint t =
  (* Records only — the checkpoint covers every accepted transaction, so
     their records must be on disk before compaction rewrites the log.
     Queued acks stay queued until their group boundary. *)
  flush_records t;
  let result =
    Tracer.span t.tracer ~cat:"checkpoint" ~name:"write"
      ~arg:(string_of_int t.accepted)
    @@ fun () ->
    let text = checkpoint_text t.mon ~accepted:t.accepted ~last:t.last in
    let tmp = Filename.concat t.dir ".checkpoint.tmp" in
    let* () = t.fs.write_file tmp text in
    let* () = t.fs.rename tmp (checkpoint_path t.dir t.accepted) in
    bump t "checkpoints_written";
    t.since_ck <- 0;
    t.wal_bytes <- 0;
    (* Prune, then compact: the WAL may only shrink once the snapshots
       that replace its prefix are durable. Pruning is best-effort. *)
    let files = checkpoint_files t.fs t.dir in
    List.iteri
      (fun i (_, path) ->
        if i >= t.cfg.retain then ignore (t.fs.remove path))
      files;
    compact_wal t
  in
  match result with
  | Ok () ->
    t.degraded <- false;
    Ok ()
  | Error e ->
    bump t "checkpoint_failures";
    Error e

(* ---------------- Feeding transactions ---------------- *)

let reject t reason =
  match t.cfg.on_error with
  | Halt -> Error reason
  | Skip ->
    bump t "txns_skipped";
    Tracer.point t.tracer ~cat:"supervisor" ~name:"txn-skipped" ~arg:reason ();
    Ok (Skipped reason)
  | Reject | Repair ->
    (* Repair heals constraint violations; a transaction that is not even
       well formed (or time-travels) has nothing to heal — report it. *)
    bump t "txns_rejected";
    Tracer.point t.tracer ~cat:"supervisor" ~name:"txn-rejected" ~arg:reason ();
    Ok (Rejected reason)

let finish t ~t0 =
  (match t.metrics with
   | None -> ()
   | Some m -> Metrics.record_latency m (Unix.gettimeofday () -. t0));
  if t.cfg.auto_checkpoint > 0 && t.since_ck >= t.cfg.auto_checkpoint
  then begin
    match checkpoint t with
    | Ok () -> ()
    | Error e -> enter_degraded t ~why:("checkpoint failed: " ^ e)
  end

(* Self-healing path (on_error = Repair). Unlike the eager path, the WAL
   append is deferred until the final transaction is known: a repaired
   transaction is journaled as ONE record [(time, txn @ actions)], so
   recovery replays straight to the repaired state and a torn append loses
   the repair and its trigger together (never a half-repaired state).
   Durability still precedes verdict delivery. *)
let step_repair t ~t0 ~time ~txn db =
  let pre_mon = t.mon and pre_q = t.quarantine in
  let pre_accepted = t.accepted and pre_last = t.last in
  let pre_ck = t.since_ck in
  let inconclusive = List.map fst pre_q in
  let* reports = step_checkers t ~time db in
  if reports = [] then begin
    append_wal t ~time txn;
    finish t ~t0;
    Ok (Checked { reports; inconclusive })
  end
  else begin
    let skip name = List.mem_assoc name pre_q in
    let res =
      Tracer.span t.tracer ~cat:"repair" ~name:"search"
        ~arg:(string_of_int (List.length reports)) (fun () ->
          Repair.search ~checkers:(Monitor.checkers pre_mon) ~skip ~time ~txn
            db)
    in
    match res with
    | Error e -> Error ("repair: " ^ e)
    | Ok (Repair.Unrepairable stuck) ->
      (* The violating state stays committed — there is nothing a
         current-state update could do about it. *)
      bump t "txns_unrepairable";
      Tracer.point t.tracer ~cat:"repair" ~name:"unrepairable"
        ~arg:(String.concat "," (List.map (fun u -> u.Repair.constraint_name) stuck))
        ();
      append_wal t ~time txn;
      finish t ~t0;
      Ok
        (Unrepairable
           { reports;
             unrepairable =
               List.map
                 (fun u -> (u.Repair.constraint_name, u.Repair.offending))
                 stuck;
             inconclusive })
    | Ok (Repair.Inconclusive { reason; _ }) ->
      (* Honest non-answer: the violation stands, exactly as under Halt's
         Checked outcome, and the budget exhaustion is counted. *)
      bump t "repairs_inconclusive";
      Tracer.point t.tracer ~cat:"repair" ~name:"inconclusive" ~arg:reason ();
      append_wal t ~time txn;
      finish t ~t0;
      Ok (Checked { reports; inconclusive })
    | Ok Repair.Clean ->
      (* Oracle and committed step disagree — defensive, should not happen. *)
      append_wal t ~time txn;
      finish t ~t0;
      Ok (Checked { reports; inconclusive })
    | Ok (Repair.Repaired { actions; witnesses; db = rdb; _ }) ->
      (* Roll the violating step back and commit the repaired state
         instead. Violations recorded by the first step stand in the
         metrics as detected-then-repaired. *)
      t.mon <- pre_mon;
      t.quarantine <- pre_q;
      t.accepted <- pre_accepted;
      t.last <- pre_last;
      t.since_ck <- pre_ck;
      append_wal t ~time (txn @ actions);
      let* reports' = step_checkers t ~time rdb in
      bump t "txns_repaired";
      bump ~by:(List.length actions) t "repair_actions_applied";
      Tracer.point t.tracer ~cat:"repair" ~name:"applied"
        ~arg:(string_of_int (List.length actions)) ();
      finish t ~t0;
      if reports' = [] then
        Ok
          (Repaired
             { actions;
               witnesses =
                 List.map
                   (fun w -> (w.Repair.action, w.Repair.fired_by))
                   witnesses;
               repaired = reports;
               inconclusive })
      else
        (* Defensive: the committed re-step disagrees with the probe. *)
        Ok (Checked { reports = reports'; inconclusive })
  end

(* Feed one transaction through the commit queue: the transaction is
   fully processed (applied, checked, its record buffered) but its
   outcome is only {e released} once the batch holding its record is
   durable. Returns the outcomes whose batch this call flushed — [] when
   the batch is still open, possibly several when it just closed. A
   [Halt]-policy error still flushes the records of everything accepted
   so far (their acks are lost with the run — crash semantics). *)
let submit t ~time txn =
  let t0 =
    match t.metrics with None -> 0.0 | Some _ -> Unix.gettimeofday ()
  in
  let queue o = t.pending_outs_rev <- o :: t.pending_outs_rev in
  let queued r =
    match r with
    | Error e ->
      flush_records t;
      Error e
    | Ok o ->
      queue o;
      Ok (maybe_release t)
  in
  match t.last with
  | Some t1 when time <= t1 ->
    bump t "clock_regressions";
    Tracer.point t.tracer ~cat:"supervisor" ~name:"clock-regression" ();
    queued
      (reject t (Printf.sprintf "clock regression: time %d after %d" time t1))
  | _ ->
    Tracer.span t.tracer ~cat:"txn" ~arg:(string_of_int time) @@ fun () ->
    (match
       Tracer.span t.tracer ~cat:"apply" (fun () ->
           Update.apply (Monitor.database t.mon) txn)
     with
     | Error e ->
       bump t "malformed_txns";
       queued (reject t ("malformed transaction: " ^ e))
     | Ok db when t.cfg.on_error = Repair ->
       queued (step_repair t ~t0 ~time ~txn db)
     | Ok db ->
       (* Accepted: buffer the record, then verdicts, then maybe flush —
          [finish] last so the measured latency covers the durability
          work exactly when this transaction closed its batch. *)
       append_wal t ~time txn;
       let inconclusive = List.map fst t.quarantine in
       (match step_checkers t ~time db with
        | Error e ->
          flush_records t;
          Error e
        | Ok reports ->
          queue (Checked { reports; inconclusive });
          let released = maybe_release t in
          finish t ~t0;
          Ok released))

let step t ~time txn =
  let* released = submit t ~time txn in
  match List.rev (flush t) @ List.rev released with
  | o :: _ -> Ok o
  | [] -> Error "internal: transaction produced no outcome"

(* ---------------- Lifecycle ---------------- *)

let make ~fs ~cfg ~dir ~metrics ~tracer ~mon ~accepted ~last ~degraded
    ~wal_version =
  { fs;
    cfg;
    dir;
    metrics;
    tracer;
    mon;
    quarantine = [];
    accepted;
    last;
    since_ck = 0;
    wal_bytes = 0;
    degraded;
    wal_version;
    wal_out = None;
    pending_buf = Buffer.create 1024;
    pending_records = 0;
    pending_outs_rev = [];
    batch_t0 = 0.0 }

let create ?(fs = Faults.real_fs) ?metrics ?tracer ?pool
    ?(config = default_config) ?init ~state_dir:dir cat defs =
  let* () =
    if config.wal_format = 1 || config.wal_format = 2 then Ok ()
    else
      Error
        (Printf.sprintf "unknown WAL format %d (known: 1, 2)"
           config.wal_format)
  in
  let* () = fs.mkdir dir in
  if state_exists fs dir then
    Error
      (Printf.sprintf
         "%s already holds a WAL; refusing to overwrite live state (use \
          recover)"
         dir)
  else
    let db = match init with Some db -> db | None -> Database.create cat in
    let* mon = Monitor.create_with ?metrics ?tracer ?pool db defs in
    let t =
      make ~fs ~cfg:config ~dir ~metrics ~tracer ~mon ~accepted:0 ~last:None
        ~degraded:false ~wal_version:config.wal_format
    in
    let* () =
      fs.write_file (wal_path dir)
        (Wal.header ~version:config.wal_format ~start:0 ())
    in
    let* () = checkpoint t in
    Ok t

(* ---------------- Recovery ---------------- *)

type recovery_info = {
  checkpoint_step : int option;
  checkpoints_skipped : (string * string) list;
  wal_start : int;
  replayed : int;
  replay_reports : Monitor.report list;
  torn_tail : string option;
  repaired : bool;
}

let recover ?(fs = Faults.real_fs) ?metrics ?tracer ?pool
    ?(config = default_config) ?init ?(repair = true) ~state_dir:dir cat defs =
  if not (state_exists fs dir) then
    Error (Printf.sprintf "%s holds no WAL; not a supervisor state directory" dir)
  else
    let* wal_text = fs.read_file (wal_path dir) in
    let* w = Wal.recover wal_text in
    Option.iter
      (fun why ->
        Tracer.point tracer ~cat:"recovery" ~name:"torn-tail" ~arg:why ())
      w.Wal.torn;
    (* Newest checkpoint that loads cleanly; collect skip reasons. A
       candidate is loaded without [metrics], so a rejected one registers no
       gauge rows; the kept one is loaded again into the recorder. *)
    let rec pick skipped = function
      | [] -> (None, List.rev skipped)
      | (step, path) :: rest ->
        let name = Filename.basename path in
        (match fs.read_file path with
         | Error e -> pick ((name, e) :: skipped) rest
         | Ok text ->
           let load ?metrics () =
             load_checkpoint_text ?metrics ?tracer ?pool cat defs ~step text
           in
           (match
              if Option.is_none metrics then load ()
              else Result.bind (load ()) (fun _ -> load ?metrics ())
            with
            | Error e -> pick ((name, e) :: skipped) rest
            | Ok snap -> (Some snap, List.rev skipped)))
    in
    let picked, skipped =
      Tracer.span tracer ~cat:"recovery" ~name:"load-checkpoint" (fun () ->
          pick [] (checkpoint_files fs dir))
    in
    List.iter
      (fun (name, _) ->
        Tracer.point tracer ~cat:"recovery" ~name:"checkpoint-skipped"
          ~arg:name ())
      skipped;
    Option.iter
      (fun m -> Metrics.bump ~by:(List.length skipped) m "checkpoints_skipped")
      (if skipped = [] then None else metrics);
    let* base_step, mon =
      match picked with
      | Some snap ->
        if snap.snap_step < w.Wal.start then
          Error
            (Printf.sprintf
               "newest valid checkpoint (step %d) predates the WAL (start \
                %d): records needed to reach it were compacted away; \
                unrecoverable"
               snap.snap_step w.Wal.start)
        else Ok (Some snap, snap.snap_monitor)
      | None ->
        if w.Wal.start = 0 then
          (* No usable snapshot but the full history is in the log. *)
          let db =
            match init with Some db -> db | None -> Database.create cat
          in
          let* mon = Monitor.create_with ?metrics ?tracer ?pool db defs in
          Ok (None, mon)
        else
          Error
            (Printf.sprintf
               "no valid checkpoint and the WAL starts at record %d; \
                unrecoverable"
               w.Wal.start)
    in
    let accepted, last =
      match base_step with
      | Some snap -> (snap.snap_step, snap.snap_last_time)
      | None -> (0, None)
    in
    let t =
      (* Never append after damaged bytes (repair, below, clears this); the
         directory's format wins over cfg.wal_format: a log is never
         silently migrated mid-life (compaction rewrites it in its own
         version). *)
      make ~fs ~cfg:config ~dir ~metrics ~tracer ~mon ~accepted ~last
        ~degraded:(w.Wal.torn <> None) ~wal_version:w.Wal.version
    in
    t.quarantine <- derive_quarantine config (Monitor.checkers t.mon);
    (* Replay the WAL suffix past the checkpoint. Replayed records are not
       re-appended; they go through the same stepping (and quarantine)
       logic as live traffic. *)
    let rec drop n l =
      if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
    in
    let suffix = drop (accepted - w.Wal.start) w.Wal.records in
    let* replay_reports_rev =
      Tracer.span tracer ~cat:"recovery" ~name:"replay"
        ~arg:(string_of_int (List.length suffix))
      @@ fun () ->
      List.fold_left
        (fun acc (time, txn) ->
          let* rs = acc in
          match Update.apply (Monitor.database t.mon) txn with
          | Error e ->
            Error ("recovery replay: WAL record does not apply: " ^ e)
          | Ok db ->
            bump t "wal_records_replayed";
            let* reports = step_checkers t ~time db in
            Ok (List.rev_append reports rs))
        (Ok []) suffix
    in
    let repaired =
      repair && (match checkpoint t with Ok () -> true | Error _ -> false)
    in
    Ok
      ( t,
        { checkpoint_step = Option.map (fun s -> s.snap_step) base_step;
          checkpoints_skipped = skipped;
          wal_start = w.Wal.start;
          replayed = List.length suffix;
          replay_reports = List.rev replay_reports_rev;
          torn_tail = w.Wal.torn;
          repaired } )

(* ---------------- Introspection ---------------- *)

let database t = Monitor.database t.mon
let checkers t = Monitor.checkers t.mon
let steps t = t.accepted
let last_time t = t.last
let space t = Monitor.space t.mon
let quarantined t = t.quarantine
let degraded t = t.degraded
let wal_bytes_since_checkpoint t = t.wal_bytes
let state_dir t = t.dir
let wal_version t = t.wal_version
let pending_records t = t.pending_records
let pending_outcomes t = List.length t.pending_outs_rev
