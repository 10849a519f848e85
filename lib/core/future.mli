(** Monitoring constraints with bounded-future operators by verdict delay.

    The paper's checker is past-only; its future-work remark observes that
    {e bounded} future operators ([next], [until], [eventually], [always]
    with finite upper bounds) can be handled by delaying the verdict: the
    truth of such a constraint at state [i] depends only on states within
    the constraint's {e horizon} ([Formula.future_reach]) after [τ_i], so
    once the clock passes [τ_i + horizon] the verdict at [i] is final.

    This monitor keeps a sliding buffer of recent states — bounded by the
    constraint's past window plus its future horizon, in the same
    window-bounded spirit as the bounded history encoding — and emits each
    position's verdict as soon as it becomes decidable. Admission requires
    the constraint to be typed, closed, monitorable, and to have {e finite
    past and future reach} (an unbounded [once] cannot be buffered; use the
    past-only checker for pure-past constraints, which has no such
    restriction). *)

type t
(** Monitor state. Functional: {!step} returns a new state. *)

type verdict = {
  index : int;      (** Position the verdict is about. *)
  time : int;       (** That position's timestamp. *)
  satisfied : bool;
}

val create :
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def ->
  (t, string) result
(** Admit a constraint with (possibly) bounded-future operators. With
    [?metrics], {!step} records step counts, per-step wall-clock latency
    and unsatisfied-verdict counts (this monitor has no kernel, so no
    per-node gauges are registered). With [?tracer], each {!step} emits a
    [txn] root span with a [constraint] span around the verdicts that
    became decidable. *)

val horizon : t -> int
(** The verdict delay in ticks: a position is decided once the clock is more
    than this far past it. *)

val step : t -> time:int -> Rtic_relational.Database.t -> (t * verdict list, string) result
(** Feed the next committed state; returns the verdicts that became final,
    in increasing position order. A pure-past constraint (horizon 0) yields
    its verdict immediately. *)

val finish : t -> verdict list
(** End of monitoring: decide all still-pending positions against the finite
    trace seen so far (no further witnesses can arrive), in increasing
    position order. *)

val pending : t -> int
(** Number of positions whose verdict is still delayed. *)

val buffered_states : t -> int
(** Number of states currently buffered (bounded by the states within the
    past window + horizon). *)

val run_trace :
  ?tracer:Tracer.t ->
  Rtic_relational.Schema.Catalog.t ->
  Rtic_mtl.Formula.def list ->
  Rtic_temporal.Trace.t ->
  (Monitor.report list, string) result
(** Monitor a whole trace by verdict delay. Every constraint is admitted
    ({!create}) before the first transaction, so an admission error comes
    before any step. Then one pass applies each transaction once and steps
    every admitted state on the resulting database; at the end {!finish}
    decides what is still pending. Reports are grouped by constraint in
    definition order, and by position within a constraint. Memory is the
    states' buffers plus the reports: no history is materialised. With no
    constraints the trace is not read at all. With [?tracer], each state
    emits its {!step} spans, so the [txn] spans of several constraints
    interleave per transaction. *)
