(* The shard runner behind every parallel engine path. The caller fixes the
   partition; this module owns the pool round trip, the shard spans, the
   choice of the reported error, and the per-shard metrics recorders
   (the main recorder is not thread-safe), whose rows are copied back onto
   the main recorder's sequential-order rows after every successful step,
   so the main recorder's document is identical to what a sequential run
   would have produced. *)

type t = {
  pool : Pool.t;
  main : Metrics.t option;
  groups : int array array;  (* item indices per shard, ascending *)
  items : int;
  recorders : Metrics.t array;  (* [||] when [main] is [None] *)
  slots : int array array;  (* per shard: shard row j -> main row *)
}

let make ?metrics pool groups =
  let nshards = Array.length groups in
  { pool;
    main = metrics;
    groups;
    items = Array.fold_left (fun acc g -> acc + Array.length g) 0 groups;
    recorders =
      (match metrics with
       | None -> [||]
       | Some _ -> Array.init nshards (fun _ -> Metrics.create ()));
    slots = Array.make nshards [||] }

let groups t = t.groups

let shard_metrics t s =
  if Array.length t.recorders = 0 then None else Some t.recorders.(s)

let mirror t s rows =
  if t.main <> None then t.slots.(s) <- Array.append t.slots.(s) rows

let sum t f = Array.fold_left (fun acc r -> acc + f r) 0 t.recorders

let sync t =
  match t.main with
  | None -> ()
  | Some main ->
    Array.iteri
      (fun s rows ->
        Array.iteri
          (fun j row -> Metrics.copy_node ~src:t.recorders.(s) j ~dst:main row)
          rows)
      t.slots;
    Metrics.set_cache_counts main ~hits:(sum t Metrics.cache_hits)
      ~misses:(sum t Metrics.cache_misses)

let run ?tracer t work =
  let timed = tracer <> None in
  let outs =
    Pool.run t.pool
      (Array.mapi
         (fun s group () ->
           let w0 = if timed then Unix.gettimeofday () else 0.0 in
           let r = work s group in
           (r, w0, if timed then Unix.gettimeofday () else 0.0))
         t.groups)
  in
  (match tracer with
   | None -> ()
   | Some tr ->
     Array.iteri
       (fun s ((_, w0, w1) : _ * float * float) ->
         Tracer.timed_span tracer ~cat:"shard" ~name:(string_of_int s)
           ~arg:(string_of_int (Array.length t.groups.(s)))
           ~t0_ns:(Tracer.stamp tr w0) ~t1_ns:(Tracer.stamp tr w1) ())
       outs);
  let results = Array.make t.items None in
  let err =
    Array.fold_left
      (fun acc ((stepped, e), _, _) ->
        List.iter (fun (i, r) -> results.(i) <- Some r) stepped;
        match (acc, e) with
        | Some (j, _), Some (i, _) when j <= i -> acc
        | _, Some _ -> e
        | _, None -> acc)
      None outs
  in
  if err = None then sync t;
  (results, err)
