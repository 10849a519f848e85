(** Multi-constraint monitoring with cross-constraint subformula sharing.

    The plain {!Monitor} gives each constraint its own checker: a temporal
    subformula mentioned by several constraints (say,
    [once\[0,30\] fault(i)] appearing in three alarm policies) is maintained
    once {e per constraint}. This monitor registers all constraints in a
    single {!Kernel}, where structurally equal temporal subformulas share
    one auxiliary relation fleet-wide — the sharing optimization of the
    active-DBMS implementations.

    Verdicts are identical to the per-constraint monitor (property-tested);
    space and per-transaction time drop in proportion to the overlap
    (experiment E9 in the bench harness). Under a pool the constraint set
    is partitioned by sharing component and stepped through {!Fanout.run},
    the same shard runner the per-constraint monitor uses. *)

type t
(** Monitor state. Functional: {!step} returns a new state. *)

val create :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:Incremental.config ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  (t, string) result
(** Admit all constraints (same admission rules as {!Incremental.create};
    names must be distinct) into one shared kernel, over an initially empty
    database. With [?metrics], the shared kernel's nodes are registered
    once (reflecting the sharing) and {!step} records latency and
    violation counts. With [?tracer], each {!step} emits a [txn] root span
    with [apply], per-constraint and per-node child spans; a shared node's
    update is attributed to whichever constraint forced it first.

    With [?pool] of size > 1, the constraint set is {e sharded} across the
    pool's domains: the sharing components (constraints connected through
    a common temporal subformula) are computed, kept whole, and spread
    round-robin over [min size components] per-domain kernels. {!step}
    then fans each transaction out to every shard and merges the verdicts
    in registration order — reports, error strings and (synced) metrics
    are identical to the sequential run; only step latencies and the trace
    stream differ (per-shard [shard] spans replace the per-constraint and
    per-node spans, which would race on the tracer). A pool of size 1 (or
    a constraint set with fewer than two components) uses the sequential
    single-kernel path, bit-for-bit. *)

val step :
  t ->
  time:int ->
  Rtic_relational.Update.transaction ->
  (t * Monitor.report list, string) result
(** Apply a transaction, update every shared auxiliary relation exactly
    once, evaluate every constraint, and report the violated ones (in
    registration order). *)

val run_trace :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:Incremental.config ->
  Rtic_mtl.Formula.def list ->
  Rtic_temporal.Trace.t ->
  (Monitor.report list, string) result
(** Run a whole trace; report order matches {!Monitor.run_trace}. *)

val space : t -> int
(** Stored pairs across the shared auxiliary relations. Under a sharded
    run, a retained previous-state snapshot (transition atoms) is counted
    once per shard that needs it. *)

val shard_count : t -> int
(** Number of kernels the constraint set runs on (1 = sequential). *)

val shared_nodes : t -> int
(** Distinct temporal subformulas maintained. *)

val unshared_nodes : t -> int
(** What the per-constraint monitor would maintain: the sum of each
    constraint's own distinct subformula count. *)
