(** Crash-safe monitoring service: the resilience layer around {!Monitor}.

    A supervisor holds one {!Monitor.t} and steps it through
    {!Monitor.check}, the same checker loop {!Monitor.step} runs, adding
    only the quarantine accounting below. It owns a {e state directory} and
    keeps the monitor recoverable at all times:

    - every accepted transaction is appended to a CRC-per-record
      write-ahead log ({!Wal}) {e before} its verdicts are delivered, so a
      crash at any point loses no accepted transaction;
    - every [auto_checkpoint] accepted transactions the full monitor state
      is written to a fresh checkpoint file — write-temp-then-rename, so a
      crash mid-write never damages an existing snapshot — the newest
      [retain] checkpoints are kept, and the WAL is compacted to the
      oldest retained one;
    - {!recover} restarts from the newest checkpoint that loads cleanly
      (corrupt ones are skipped and reported, using {!Monitor.of_text}'s
      strict errors plus a whole-file CRC trailer) and replays the WAL
      suffix, yielding a state observationally identical to the
      uninterrupted run — the crash-recovery equivalence property of
      [test/test_resilience.ml].

    Ill-formed input — a clock regression or a malformed transaction — is
    handled per the configured {!policy} instead of killing the service,
    and a per-constraint auxiliary-space budget {e quarantines} a
    constraint whose bounded history encoding outgrows it: monitoring of
    the other constraints continues and the quarantined constraint's
    verdicts become explicitly inconclusive rather than the process dying
    of memory exhaustion.

    All file I/O goes through a {!Faults.fs} record, so the whole layer
    runs hermetically against {!Faults.mem_fs} and under injected write
    failures. Write failures degrade rather than kill: verdicts keep
    flowing, durability is suspended ({!degraded}), and the next
    successful checkpoint restores it.

    State directory layout (FORMATS.md §5): [wal.log] plus
    [checkpoint-NNNNNNNNN.ck] files, where [NNNNNNNNN] is the zero-padded
    count of transactions accepted when the snapshot was taken. *)

(** What to do with a transaction the monitor cannot process — a clock
    regression (commit time not past the last accepted one) or a malformed
    transaction (an update {!Rtic_relational.Update.apply} refuses). *)
type policy =
  | Halt  (** Return [Error]: stop the service (the conservative default). *)
  | Skip  (** Drop it silently and keep monitoring; only counted. *)
  | Reject  (** Drop it and tell the caller via {!outcome}[.Rejected]. *)
  | Repair
      (** Like {!Reject} for ill-formed transactions — but a {e well}-formed
          transaction that violates constraints triggers a bounded
          {!Repair.search} for a founded minimal repair. If one is found,
          the transaction commits {e with} the repair actions (journaled as
          one WAL record, so recovery replays the repaired state
          atomically) and the caller sees {!outcome.Repaired}; violations
          anchored entirely in past states are reported
          {!outcome.Unrepairable} and the violating state stands; an
          exhausted search budget falls back to a plain
          {!outcome.Checked} with its violations. *)

val policy_of_string : string -> (policy, string) result
(** ["halt"], ["skip"], ["reject"] or ["repair"]. *)

val policy_to_string : policy -> string

type config = {
  auto_checkpoint : int;
      (** Checkpoint every N accepted transactions; [0] disables automatic
          checkpointing (explicit {!checkpoint} still works). *)
  retain : int;  (** Keep the newest K checkpoint files, K ≥ 1. *)
  on_error : policy;
  aux_budget : int option;
      (** Per-constraint auxiliary-space budget ({!Incremental.space});
          [None] = unlimited. Crossing it quarantines the constraint. *)
  group_commit : int;
      (** Group commit: accepted records per WAL write+sync batch. [1]
          (the default) syncs every transaction — the classic contract.
          With N > 1, up to N−1 accepted-but-unacknowledged transactions
          can be lost by a crash; an outcome that has been {e released}
          to the caller is never lost. *)
  flush_ms : int;
      (** With group commit, also release a short batch once its oldest
          record is this many wall-clock milliseconds old (checked at the
          next {!submit}); [0] disables the age trigger. *)
  wal_format : int;
      (** WAL version written by {!create}: [1] (text records) or [2]
          (binary frames, FORMATS.md §5). {!recover} ignores this and
          keeps the directory's existing format. *)
}

val default_config : config
(** [{ auto_checkpoint = 64; retain = 2; on_error = Halt;
      aux_budget = None; group_commit = 1; flush_ms = 0;
      wal_format = 1 }]. *)

(** The result of feeding one transaction. *)
type outcome =
  | Checked of {
      reports : Monitor.report list;
          (** Violations at the new state, as {!Monitor.step}. *)
      inconclusive : string list;
          (** Constraints quarantined {e before} this transaction, in
              registration order: their verdicts are unknown, not "holds". *)
    }
  | Skipped of string  (** Dropped under {!Skip}; the reason. *)
  | Rejected of string
      (** Dropped under {!Reject} (or ill-formed under {!Repair}); the
          reason. *)
  | Repaired of {
      actions : Rtic_relational.Update.op list;
          (** The repair committed on top of the transaction, in order. *)
      witnesses : (Rtic_relational.Update.op * string) list;
          (** Foundedness: each action with the violated constraint that
              fired it, same order as [actions]. *)
      repaired : Monitor.report list;
          (** The violations the original transaction would have caused
              (and the repair healed). *)
      inconclusive : string list;
    }
  | Unrepairable of {
      reports : Monitor.report list;  (** Violations that stand. *)
      unrepairable : (string * string) list;
          (** [(constraint, offending subformula)]: the violated
              constraints whose verdict is anchored entirely in past
              states — no current-state update can heal them. *)
      inconclusive : string list;
    }

type t
(** A running supervised monitor. Mutable: {!step} updates it in place
    (unlike {!Monitor.step}) because it also owns on-disk state that
    cannot be forked. *)

(** {2 Lifecycle} *)

val create :
  ?fs:Faults.fs ->
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:config ->
  ?init:Rtic_relational.Database.t ->
  state_dir:string ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  (t, string) result
(** Start a fresh supervised monitor: create [state_dir] if needed, admit
    the constraints over [?init] (default: empty database), write the
    initial checkpoint ([checkpoint-000000000.ck]) and the WAL header.
    Fails if the directory already holds a WAL — an existing service state
    must go through {!recover} instead, never be silently overwritten.

    With [?tracer], the service's durability work becomes visible in the
    trace stream alongside the engine spans: {!step} wraps the WAL append
    in a [wal:append] span and {!checkpoint} the snapshot write in a
    [checkpoint:write] span, while quarantine decisions, degraded-mode
    entry, policy drops and clock regressions are emitted as [supervisor]
    point events (see {!Tracer}).

    With [?pool] of size > 1, the checkers are sharded across the pool's
    domains exactly as in {!Monitor.create}: every {!step} fans the
    transaction out to all shards and the per-constraint quarantine/budget
    accounting runs in registration order afterwards ({!Monitor.check}), so
    outcomes, quarantine decisions, counters and synced metrics are
    identical to the sequential service; per-constraint tracer spans are
    replaced by per-shard [shard] spans. All durability work (WAL append,
    checkpointing) stays on the calling domain. *)

val step :
  t ->
  time:int ->
  Rtic_relational.Update.transaction ->
  (outcome, string) result
(** Feed one transaction and force its outcome out: [submit] followed by
    {!flush}, returning this transaction's own outcome. Accepted
    transactions are durable (written + synced) before the outcome is
    returned; ill-formed ones take the {!policy} path and are {e not}
    logged, so re-feeding the same input after a crash skips them again
    deterministically. [Error] means the service must stop: {!Halt}
    policy, or an internal failure. With [group_commit = 1] this is the
    classic one-sync-per-transaction service loop; callers that want
    batched durability use {!submit}/{!flush} instead. *)

val submit :
  t ->
  time:int ->
  Rtic_relational.Update.transaction ->
  (outcome list, string) result
(** Feed one transaction through the commit queue. The transaction is
    fully processed immediately (applied, checked, its WAL record
    buffered), but its outcome is queued and only {e released} once the
    batch holding its record has been written and synced — when the batch
    reaches [config.group_commit] records or ages past [config.flush_ms].
    Returns the outcomes released by this call, oldest first: usually
    [[]] (batch still open) or a whole batch. Outcomes without a WAL
    record of their own ({!Skipped}/{!Rejected}) queue behind any pending
    records so release order always matches submission order. [Error]
    (Halt policy or internal failure) still flushes the buffered records
    first — their queued outcomes are lost with the run, exactly as a
    crash would lose them. *)

val flush : t -> outcome list
(** Force the current batch down now: write + sync any buffered records
    and release every queued outcome, oldest first. A failed write
    degrades the supervisor (see {!degraded}) but the outcomes are
    released regardless — verdicts keep flowing without durability,
    matching the per-record contract. *)

val pending_records : t -> int
(** Accepted transactions whose WAL records are buffered but not yet
    written + synced (the at-risk window; < [config.group_commit]). *)

val pending_outcomes : t -> int
(** Outcomes queued awaiting release (≥ {!pending_records} — policy
    outcomes queue too, to preserve order). *)

val checkpoint : t -> (unit, string) result
(** Snapshot now: write the full state to a fresh checkpoint file
    (temp-then-rename), prune to the newest [retain] snapshots, and
    compact the WAL to the oldest retained one. On success durability is
    (re-)established: {!degraded} becomes [false]. *)

(** {2 Recovery} *)

type recovery_info = {
  checkpoint_step : int option;
      (** Step count of the checkpoint restored from; [None] when no
          checkpoint was usable and recovery replayed from scratch. *)
  checkpoints_skipped : (string * string) list;
      (** Corrupt or unreadable snapshots: [(basename, reason)]. *)
  wal_start : int;  (** Global index of the WAL's first record. *)
  replayed : int;  (** WAL records re-applied on top of the checkpoint. *)
  replay_reports : Monitor.report list;
      (** Violations re-observed during replay (already delivered before
          the crash; useful for audit). *)
  torn_tail : string option;
      (** Why the WAL's tail was dropped, if it was ({!Wal.recovery}). *)
  repaired : bool;
      (** A post-recovery checkpoint was written (and the WAL compacted,
          clearing any torn tail). *)
}

val recover :
  ?fs:Faults.fs ->
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:config ->
  ?init:Rtic_relational.Database.t ->
  ?repair:bool ->
  state_dir:string ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  (t * recovery_info, string) result
(** Restart from [state_dir]: load the newest checkpoint that passes its
    CRC trailer and {!Monitor.of_text}'s strict checks (skipping corrupt
    ones), then replay every WAL record past it. With no usable
    checkpoint, falls back to replaying the whole WAL from scratch — but
    only if the WAL actually starts at record 0; a compacted WAL with no
    valid checkpoint is unrecoverable ([Error]). With [?tracer], the
    snapshot probe and the WAL replay run inside [recovery:load-checkpoint]
    and [recovery:replay] spans, with torn tails and skipped checkpoints
    as [recovery] point events.

    [?repair] (default [true]) writes a fresh checkpoint immediately
    after recovery, compacting the WAL and clearing any torn tail. With
    [~repair:false] the directory is left untouched (inspection mode);
    if the WAL had a torn tail the returned supervisor starts
    {!degraded} so it never appends after damaged bytes.

    [?init] must be the same pre-history database given to {!create} —
    it is only used by the replay-from-scratch fallback.

    Quarantine is not persisted separately: it is re-derived from the
    restored checker spaces against [config.aux_budget] (a frozen
    checker's space exceeds the budget by construction), so the
    checkpoint alone is the whole state. *)

(** {2 Introspection} *)

val database : t -> Rtic_relational.Database.t

val checkers : t -> Incremental.t list
(** The live checker states, registration order (quarantined included).
    Functional values: stepping them (as [rtic repair]'s standalone search
    does) never disturbs the supervisor. *)

val steps : t -> int
(** Transactions accepted so far (the global WAL index). *)

val last_time : t -> int option
(** Commit time of the last accepted transaction. *)

val space : t -> int
(** Total auxiliary space across all checkers, quarantined included. *)

val quarantined : t -> (string * string) list
(** Quarantined constraints: [(name, reason)], registration order. *)

val degraded : t -> bool
(** [true] while durability is suspended — a WAL append or checkpoint
    failed, or recovery found a torn tail and was told not to repair.
    Verdicts still flow; a successful {!checkpoint} clears it. *)

val wal_bytes_since_checkpoint : t -> int
(** Bytes appended to the WAL since the last successful {!checkpoint}
    (0 right after one, and right after {!create}/{!recover} — recovery
    replays the suffix without re-appending it). The telemetry layer
    exposes this as a per-session gauge: together with [auto_checkpoint]
    it tells an operator how much replay a crash right now would cost. *)

val state_dir : t -> string

val wal_version : t -> int
(** The WAL format this directory is running: 1 or 2. Set from
    [config.wal_format] at {!create} and from the on-disk log at
    {!recover}; compaction preserves it. *)

(** {2 State-directory helpers} (used by [rtic recover] and the tests) *)

val wal_path : string -> string
(** [state_dir/wal.log]. *)

val checkpoint_path : string -> int -> string
(** [state_dir/checkpoint-NNNNNNNNN.ck]. *)

val checkpoint_files :
  Faults.fs -> string -> (int * string) list
(** The checkpoint files present, [(step, path)], newest first. *)

val state_exists : Faults.fs -> string -> bool
(** Whether [state_dir] holds a WAL (i.e. {!create} would refuse). *)

type snapshot = {
  snap_step : int;  (** From the filename; cross-checked vs the trailer. *)
  snap_monitor : Monitor.t;
  snap_last_time : int option;
}

val load_checkpoint :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  fs:Faults.fs ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  string ->
  (snapshot, string) result
(** Load and fully validate one checkpoint file: verify the [# crc32]
    trailer when present (supervisor-written snapshots always carry one;
    plain [--save-state] files without it are still accepted), then
    restore through {!Monitor.of_text}. *)
