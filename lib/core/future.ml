module Database = Rtic_relational.Database
module History = Rtic_temporal.History
module Formula = Rtic_mtl.Formula
module Rewrite = Rtic_mtl.Rewrite
module Safety = Rtic_mtl.Safety
module Naive = Rtic_eval.Naive
module Trace = Rtic_temporal.Trace
module Update = Rtic_relational.Update

let ( let* ) = Result.bind

type verdict = {
  index : int;
  time : int;
  satisfied : bool;
}

type t = {
  d : Formula.def;
  norm : Formula.t;
  transitions : bool;  (* +R/-R atoms: keep one extra state when pruning *)
  past : int;     (* finite past reach *)
  hz : int;       (* finite future horizon *)
  (* The buffer of (index, time, db) states is a two-list deque: [front]
     holds the oldest states in order, [back_rev] the newest in reverse, so
     appending is O(1) and pruning pops from the front — both amortized
     constant, where a single `buffer @ [x]` list was quadratic over a run.
     Invariant: [front = []] implies [back_rev = []]. *)
  front : (int * int * Database.t) list;
  back_rev : (int * int * Database.t) list;
  next_index : int;
  first_undecided : int;
  last_time : int option;
  metrics : Metrics.t option;
  tracer : Tracer.t option;
}

let create ?metrics ?tracer cat (d : Formula.def) =
  match Safety.monitorable cat d with
  | Error _ as e -> e
  | Ok () ->
    (match Formula.time_reach d.body, Formula.future_reach d.body with
     | None, _ ->
       Error
         (Printf.sprintf
            "constraint %s has an unbounded past window and cannot be \
             buffer-monitored; use the past-only incremental checker"
            d.name)
     | _, None ->
       Error
         (Printf.sprintf
            "constraint %s has an unbounded future horizon; only bounded \
             future operators can be monitored by verdict delay"
            d.name)
     | Some past, Some hz ->
       let norm = Rewrite.normalize d.body in
       Ok
         { d;
           norm;
           transitions = Formula.has_transition_atoms norm;
           past;
           hz;
           front = [];
           back_rev = [];
           next_index = 0;
           first_undecided = 0;
           last_time = None;
           metrics;
           tracer })

let horizon st = st.hz
let pending st = st.next_index - st.first_undecided
let buffered_states st = List.length st.front + List.length st.back_rev
let buffer st = st.front @ List.rev st.back_rev

let append st entry =
  match st.front with
  | [] -> { st with front = [ entry ] }
  | _ -> { st with back_rev = entry :: st.back_rev }

(* Evaluate the (closed, monitorable) constraint at absolute position [j]
   against the buffered window. The buffer always contains every state
   within the past window of any undecided position, so truncation cannot
   change the verdict. *)
let decide st j =
  match buffer st with
  | [] -> invalid_arg "Future.decide: empty buffer"
  | (first_idx, _, _) :: _ as buf ->
    let h =
      match History.of_snapshots (List.map (fun (_, t, db) -> (t, db)) buf) with
      | Ok h -> h
      | Error m -> invalid_arg ("Future.decide: " ^ m)
    in
    let local = j - first_idx in
    (match Naive.holds_at h local st.norm with
     | Ok sat -> { index = j; time = History.time h local; satisfied = sat }
     | Error m -> invalid_arg ("Future.decide: " ^ m))

let buffer_time st j =
  match st.front with
  | [] -> invalid_arg "Future.buffer_time: empty buffer"
  | (first_idx, _, _) :: _ ->
    let rec nth_time k = function
      | (_, t, _) :: rest -> if k = 0 then Some t else nth_time (k - 1) rest
      | [] -> None
    in
    let off = j - first_idx in
    (match nth_time off st.front with
     | Some t -> t
     | None ->
       (match
          nth_time (off - List.length st.front) (List.rev st.back_rev)
        with
        | Some t -> t
        | None -> invalid_arg "Future.buffer_time: index out of buffer"))

let prune st =
  match st.front with
  | [] -> st
  | _ ->
    let keep_from =
      if pending st > 0 then buffer_time st st.first_undecided - st.past
      else
        (* no pending positions: keep only what future positions may need *)
        (match st.last_time with
         | Some now -> now - st.past
         | None -> min_int)
    in
    (* Timestamps are strictly increasing, so everything to drop is a prefix
       of the deque: pop from the front only, refilling it from [back_rev]
       when it runs dry. Each state is dropped at most once over the whole
       run, making pruning amortized O(1) per step. *)
    let rec drop newest_dropped front back_rev =
      match front with
      | ((_, t, _) as e) :: rest when t < keep_from ->
        drop (Some e) rest back_rev
      | [] ->
        (match back_rev with
         | [] -> (newest_dropped, [], [])
         | _ -> drop newest_dropped (List.rev back_rev) [])
      | _ -> (newest_dropped, front, back_rev)
    in
    let newest_dropped, front, back_rev =
      drop None st.front st.back_rev
    in
    let front =
      (* transition atoms read the immediately preceding state, however old
         it is: retain the newest dropped state as well *)
      match newest_dropped with
      | Some e when st.transitions -> e :: front
      | _ -> front
    in
    (* restore the invariant: a non-empty buffer has a non-empty front *)
    let front, back_rev =
      match front with [] -> (List.rev back_rev, []) | _ -> (front, back_rev)
    in
    { st with front; back_rev }

let step st ~time db =
  match st.last_time with
  | Some t0 when time <= t0 ->
    Error (Printf.sprintf "non-increasing timestamp: %d after %d" time t0)
  | _ ->
    Tracer.span st.tracer ~cat:"txn" ~arg:(string_of_int time) @@ fun () ->
    let t0 =
      match st.metrics with None -> 0.0 | Some _ -> Unix.gettimeofday ()
    in
    let st =
      append
        { st with next_index = st.next_index + 1; last_time = Some time }
        (st.next_index, time, db)
    in
    (try
       (* Decide every pending position whose horizon has fully passed:
          future witnesses for position j need a timestamp <= τ_j + hz, and
          all timestamps <= time have arrived. *)
       let rec go st acc =
         if pending st = 0 then (st, List.rev acc)
         else
           let j = st.first_undecided in
           if time - buffer_time st j >= st.hz then
             let v = decide st j in
             go { st with first_undecided = j + 1 } (v :: acc)
           else (st, List.rev acc)
       in
       let st, verdicts =
         Tracer.span st.tracer ~cat:"constraint" ~name:st.d.Formula.name
           (fun () -> go st [])
       in
       (match st.metrics with
        | None -> ()
        | Some mx ->
          Metrics.incr_steps mx;
          Metrics.record_latency mx (Unix.gettimeofday () -. t0);
          Metrics.add_violations mx
            (List.fold_left
               (fun n v -> if v.satisfied then n else n + 1)
               0 verdicts));
       Ok (prune st, verdicts)
     with Invalid_argument m -> Error m)

let finish st =
  let rec go st acc =
    if pending st = 0 then List.rev acc
    else
      let j = st.first_undecided in
      let v = decide st j in
      go { st with first_undecided = j + 1 } (v :: acc)
  in
  go st []

(* One pass over the trace: each transaction is applied once and every
   admitted state steps on the result, so the run holds the buffers and the
   violations, never the history. *)
let run_trace ?tracer cat defs (tr : Trace.t) =
  let violations st vs acc =
    List.fold_left
      (fun acc v ->
        if v.satisfied then acc
        else
          { Monitor.constraint_name = st.d.Formula.name;
            position = v.index;
            time = v.time }
          :: acc)
      acc vs
  in
  (* Admit every constraint before the first step. *)
  let* sts_rev =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let* st = create ?tracer cat d in
        Ok ((st, []) :: acc))
      (Ok []) defs
  in
  match List.rev sts_rev with
  | [] -> Ok []
  | sts ->
    let* _, sts =
      List.fold_left
        (fun acc (time, txn) ->
          let* db, sts = acc in
          let* db = Update.apply db txn in
          let* sts_rev =
            List.fold_left
              (fun acc (st, out_rev) ->
                let* acc = acc in
                let* st, vs = step st ~time db in
                Ok ((st, violations st vs out_rev) :: acc))
              (Ok []) sts
          in
          Ok (db, List.rev sts_rev))
        (Ok (tr.Trace.init, sts))
        tr.Trace.steps
    in
    Ok
      (List.concat_map
         (fun (st, out_rev) -> List.rev (violations st (finish st) out_rev))
         sts)
