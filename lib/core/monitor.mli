(** Multi-constraint monitoring over update traces.

    A monitor owns one {!Incremental} checker per registered constraint and
    drives them over a stream of transactions, collecting violation reports.
    It is the integration point an application uses: register constraints,
    feed transactions, receive violations. The per-transaction checker loop
    is written once, in {!check}, sequential and pooled alike; the
    crash-safe service ({!Supervisor}) holds a monitor and steps it through
    the same function.

    For benchmarking and testing, {!run_trace_naive} produces the same
    reports with the naive full-history evaluator — the two must agree on
    every trace (the correctness theorem; property-tested in the suite). *)

type report = {
  constraint_name : string;
  position : int;  (** 0-based index of the violating state. *)
  time : int;      (** Timestamp of the violating state. *)
}

type t
(** Monitor state: the current database plus every checker's state. *)

val create :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:Incremental.config ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  (t, string) result
(** Admit all constraints (each must pass {!Incremental.create}) over an
    initially empty database. Constraint names must be distinct. With
    [?metrics], every checker's kernel registers into the shared recorder
    and {!step} additionally records per-transaction wall-clock latency and
    the violation count. With [?tracer], every {!step} emits a [txn] root
    span containing an [apply] span and one [constraint] span per checker
    (see {!Tracer}).

    With [?pool] of size > 1, the checkers are partitioned round-robin
    across the pool's domains ({!Fanout}) and every {!step} fans the
    transaction out to all shards, merging verdicts (and any error) back
    in registration order — reports, error strings and synced metrics are
    identical to the sequential run; per-constraint tracer spans are
    replaced by per-shard [shard] spans. A pool of size 1 is the
    sequential path, bit-for-bit. *)

val create_with :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:Incremental.config ->
  Rtic_relational.Database.t ->
  Rtic_mtl.Formula.def list ->
  (t, string) result
(** Like {!create} but starting from a given (pre-history) database. *)

val database : t -> Rtic_relational.Database.t
(** The current database state. *)

val checkers : t -> Incremental.t list
(** The per-constraint checkers, in registration order. *)

val step :
  t ->
  time:int ->
  Rtic_relational.Update.transaction ->
  (t * report list, string) result
(** Apply one transaction at the given commit time, check every constraint
    on the resulting state, and report the constraints it violates. *)

val check :
  ?skip:(string -> bool) ->
  ?after:(Incremental.t -> unit) ->
  t ->
  time:int ->
  Rtic_relational.Database.t ->
  (t * report list, string) result
(** [check m ~time db] is {!step} minus the update and the per-transaction
    metrics: it steps every checker on the already-updated database [db]
    and returns the monitor holding [db] and the stepped checkers, with
    the violation reports in registration order. This is the one checker
    loop; the resilience layer ({!Supervisor}) drives it directly.

    Checkers whose constraint name satisfies [skip] (default: none) are
    left as they are; under a pool [skip] runs on the shard domains, so it
    may only read state. [after c] is called on the coordinating domain, in
    registration order, for each checker [c] stepped before the first
    error, in the sequential and the pooled case alike. On an error the
    monitor is not advanced and the lowest-index checker's error is
    returned. *)

val space : t -> int
(** Total auxiliary space across all checkers ({!Incremental.space}). *)

val run_trace :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:Incremental.config ->
  Rtic_mtl.Formula.def list ->
  Rtic_temporal.Trace.t ->
  (report list, string) result
(** Run a whole trace through a fresh monitor; reports are ordered by
    position, then by constraint registration order. *)

val run_trace_naive :
  Rtic_mtl.Formula.def list ->
  Rtic_temporal.Trace.t ->
  (report list, string) result
(** The baseline: materialize the trace into a full history and evaluate
    every constraint at every position with {!Rtic_eval.Naive}. Produces
    reports in the same order as {!run_trace}. *)

val pp_report : Format.formatter -> report -> unit
(** Prints as [\[time\] constraint NAME violated at position P]. *)

(** {2 Checkpointing}

    A whole monitor — current database plus every checker's bounded history
    encoding — serializes to text and restores exactly
    (see {!Incremental.to_text}). Restoring and continuing a trace is
    observationally identical to never having stopped. *)

val to_text : t -> string
(** Serialize the monitor state. *)

val of_text :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?pool:Pool.t ->
  ?config:Incremental.config ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  string ->
  (t, string) result
(** [of_text cat defs text] re-admits [defs] (same constraints, same order
    as when the checkpoint was written) and restores the saved state.
    Strict on corrupt input: see {!Incremental.of_text}. *)
