(** The shard runner: one parallel step over a fixed partition of items.

    Every parallel engine path runs through {!run}: {!Monitor} (and with it
    {!Supervisor}) partitions its per-constraint checkers round-robin,
    {!Shared} partitions its constraints by sharing component; both hand
    the partition to {!make} and step each transaction with {!run}. An
    {e item} is a constraint's global registration index; a {e shard} is a
    group of items stepped by one domain of the {!Pool}.

    Because {!Metrics.t} is not thread-safe, each shard records into a
    {e private} recorder created here. After every successful {!run} the
    coordinator copies every shard gauge row onto its sequential-order row
    in the main recorder ({!mirror}) and overwrites the main recorder's
    cache counters with the shard sums. The kernel-step counter is left to
    the caller, because the two engines count steps differently: one per
    checker ({!Monitor}) versus one per transaction ({!Shared}). *)

type t

val make : ?metrics:Metrics.t -> Pool.t -> int array array -> t
(** [make ?metrics pool groups] plans a fan-out of the items in [groups]
    (item indices per shard, ascending within each shard; together they
    must be exactly [0 .. n-1]) over the pool. [?metrics] is the {e main}
    recorder the caller reports from; when given, one private recorder
    per shard is created for the shard's engines to record into. Callers
    should only build a plan with at least two groups and
    [Pool.size pool > 1] — otherwise the sequential path is both correct
    and cheaper. *)

val groups : t -> int array array
(** The item indices per shard, as given to {!make}. *)

val shard_metrics : t -> int -> Metrics.t option
(** The private recorder shard [s]'s engines must be created with
    ([None] when the plan has no main recorder). *)

val mirror : t -> int -> int array -> unit
(** [mirror t s rows] — call right after shard [s]'s recorder registered
    [Array.length rows] more gauge rows: its next rows mirror onto the
    main-recorder rows [rows], in order. No-op without a main recorder. *)

val run :
  ?tracer:Tracer.t ->
  t ->
  (int -> int array -> (int * 'a) list * (int * string) option) ->
  'a option array * (int * string) option
(** [run ?tracer t work] runs [work s group] for every shard [s] on the
    pool. [work] returns the results of the items it stepped, as
    [(item, result)] pairs, and the item and message of the error it
    stopped on, if any. [run] returns every item's result by item index
    ([None] for items not stepped) and the error with the lowest item
    index — the error a sequential run would have stopped on. With
    [?tracer], each shard's work is reported as a [shard] span. When no
    shard failed, the shard recorders are synced into the main recorder
    (see above). Call from the coordinator only. *)

val sum : t -> (Metrics.t -> int) -> int
(** A counter summed over the shard recorders (0 without a main
    recorder). *)
