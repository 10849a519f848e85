module Database = Rtic_relational.Database
module Update = Rtic_relational.Update
module Trace = Rtic_temporal.Trace
module Formula = Rtic_mtl.Formula
module Naive = Rtic_eval.Naive

type report = {
  constraint_name : string;
  position : int;
  time : int;
}

type t = {
  db : Database.t;
  checkers : Incremental.t list;  (* in registration order *)
  metrics : Metrics.t option;
  tracer : Tracer.t option;
  fan : Fanout.t option;  (* round-robin shard plan; None = sequential *)
}

let ( let* ) r f = Result.bind r f

(* Build the checkers in registration order. With a pool of size > 1 the
   checkers are partitioned round-robin (checker [i] lands in shard
   [i mod nshards]): each is created against its shard's private recorder
   and without a tracer (both are single-threaded recorders), and the main
   recorder receives the same gauge rows in the same order a sequential
   run would have registered them. [mk] admits one checker from its def
   plus a per-def payload (unit for [create], the checkpoint section for
   [of_text]). *)
let build ?metrics ?tracer ?pool ~db defs payloads mk =
  let names = List.map (fun (d : Formula.def) -> d.name) defs in
  let n = List.length defs in
  if List.length (List.sort_uniq String.compare names) <> n then
    Error "duplicate constraint names"
  else begin
    let fan =
      match pool with
      | Some p when Pool.size p > 1 && n > 1 ->
        let k = min (Pool.size p) n in
        let shard s =
          Array.of_list
            (List.filter (fun i -> i mod k = s) (List.init n Fun.id))
        in
        Some (Fanout.make ?metrics p (Array.init k shard))
      | _ -> None
    in
    let* checkers =
      List.fold_left2
        (fun acc d payload ->
          let* i, acc = acc in
          let* c =
            match fan with
            | None -> mk ?metrics ?tracer d payload
            | Some fan ->
              let s = i mod Array.length (Fanout.groups fan) in
              let* c =
                mk ?metrics:(Fanout.shard_metrics fan s) ?tracer:None d payload
              in
              Option.iter
                (fun main ->
                  let names = Incremental.node_names c in
                  let base = Metrics.register_nodes main names in
                  Fanout.mirror fan s
                    (Array.init (List.length names) (fun j -> base + j)))
                metrics;
              Ok c
          in
          Ok (i + 1, c :: acc))
        (Ok (0, []))
        defs payloads
      |> Result.map (fun (_, cs) -> List.rev cs)
    in
    Ok { db; checkers; metrics; tracer; fan }
  end

let create_with ?metrics ?tracer ?pool ?config db defs =
  build ?metrics ?tracer ?pool ~db defs
    (List.map (fun _ -> ()) defs)
    (fun ?metrics ?tracer d () ->
      Incremental.create ?metrics ?tracer ?config (Database.catalog db) d)

let create ?metrics ?tracer ?pool ?config cat defs =
  create_with ?metrics ?tracer ?pool ?config (Database.create cat) defs

let database m = m.db
let checkers m = m.checkers

(* Step the checkers [group] (ascending indices into [cs]) on [db], leaving
   out those [skip] names, and stop at the first error. [on_step] sees each
   checker as soon as it is stepped. Returns the stepped results and the
   failing checker's index and error, if any. *)
let step_group ~skip ~on_step cs ~time db group =
  let rec go acc k =
    if k = Array.length group then (acc, None)
    else
      let i = group.(k) in
      let c = cs.(i) in
      if skip (Incremental.def c).Formula.name then go acc (k + 1)
      else
        match Incremental.step c ~time db with
        | Error e -> (acc, Some (i, e))
        | Ok (c, v) ->
          on_step c;
          go ((i, (c, v)) :: acc) (k + 1)
  in
  go [] 0

(* Sequentially the group is every checker and [after] runs inline, so its
   side effects interleave with the checkers' own trace spans. Under a pool
   the shards never call [after]: the coordinator replays it in
   registration order for the checkers stepped before the first error, the
   same set the sequential loop visits. *)
let check ?(skip = fun _ -> false) ?(after = ignore) m ~time db =
  let cs = Array.of_list m.checkers in
  let n = Array.length cs in
  let stepped, err =
    match m.fan with
    | None ->
      let results, err =
        step_group ~skip ~on_step:after cs ~time db (Array.init n Fun.id)
      in
      let stepped = Array.make n None in
      List.iter (fun (i, r) -> stepped.(i) <- Some r) results;
      (stepped, err)
    | Some fan ->
      let stepped, err =
        Fanout.run ?tracer:m.tracer fan (fun _ group ->
            step_group ~skip ~on_step:ignore cs ~time db group)
      in
      let stop = match err with Some (i, _) -> i | None -> n in
      for i = 0 to stop - 1 do
        Option.iter (fun (c, _) -> after c) stepped.(i)
      done;
      (match (err, m.metrics) with
       | None, Some main ->
         Metrics.set_steps main (Fanout.sum fan Metrics.steps)
       | _ -> ());
      (stepped, err)
  in
  match err with
  | Some (_, e) -> Error e
  | None ->
    let reports = ref [] in
    for i = n - 1 downto 0 do
      match stepped.(i) with
      | None -> ()
      | Some (c, v) ->
        cs.(i) <- c;
        if not v.Incremental.satisfied then
          reports :=
            { constraint_name = (Incremental.def c).Formula.name;
              position = v.Incremental.index;
              time }
            :: !reports
    done;
    Ok ({ m with db; checkers = Array.to_list cs }, !reports)

let step m ~time txn =
  Tracer.span m.tracer ~cat:"txn" ~arg:(string_of_int time) @@ fun () ->
  let t0 =
    match m.metrics with None -> 0.0 | Some _ -> Unix.gettimeofday ()
  in
  let* db =
    Tracer.span m.tracer ~cat:"apply" (fun () -> Update.apply m.db txn)
  in
  let* m, reports = check m ~time db in
  (match m.metrics with
   | None -> ()
   | Some mx ->
     Metrics.record_latency mx (Unix.gettimeofday () -. t0);
     Metrics.add_violations mx (List.length reports));
  Ok (m, reports)

let space m =
  List.fold_left (fun acc c -> acc + Incremental.space c) 0 m.checkers

let run_trace ?metrics ?tracer ?pool ?config defs (tr : Trace.t) =
  let* m = create_with ?metrics ?tracer ?pool ?config tr.Trace.init defs in
  let* _, reports =
    List.fold_left
      (fun acc (time, txn) ->
        let* m, reports = acc in
        let* m, rs = step m ~time txn in
        Ok (m, List.rev_append rs reports))
      (Ok (m, []))
      tr.Trace.steps
  in
  Ok (List.rev reports)

let run_trace_naive defs (tr : Trace.t) =
  let* h = Trace.materialize tr in
  let* per_def =
    List.fold_left
      (fun acc (d : Formula.def) ->
        let* acc = acc in
        let* vs = Naive.violations h d in
        Ok (List.map
              (fun i ->
                { constraint_name = d.name;
                  position = i;
                  time = Rtic_temporal.History.time h i })
              vs
            :: acc))
      (Ok []) defs
  in
  (* Each list is in increasing position order; a stable merge by position
     keeps registration order among reports at the same position. *)
  Ok
    (List.stable_sort
       (fun a b -> compare a.position b.position)
       (List.concat (List.rev per_def)))

let pp_report ppf r =
  Format.fprintf ppf "[%d] constraint %s violated at position %d" r.time
    r.constraint_name r.position

(* ---------------- Checkpointing ---------------- *)

let to_text m =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "rtic-monitor-checkpoint 2\n";
  Buffer.add_string buf "-- database\n";
  Buffer.add_string buf (Rtic_relational.Textio.dump_database m.db);
  List.iter
    (fun c ->
      Buffer.add_string buf "-- checker\n";
      Buffer.add_string buf (Incremental.to_text c))
    m.checkers;
  Buffer.contents buf

let of_text ?metrics ?tracer ?pool ?config cat defs text =
  let lines = String.split_on_char '\n' text in
  (* Split into the database section and one section per checker. *)
  let rec split sections current header_ok = function
    | [] -> Ok (header_ok, List.rev (List.rev current :: sections))
    | l :: rest ->
      let t = String.trim l in
      if t = "rtic-monitor-checkpoint 2" then split sections current true rest
      else if t = "-- database" || t = "-- checker" then
        split (List.rev current :: sections) [] header_ok rest
      else split sections (l :: current) header_ok rest
  in
  let* header_ok, sections = split [] [] false lines in
  if not header_ok then Error "monitor checkpoint: missing header"
  else
    match sections with
    | _prefix :: db_section :: checker_sections ->
      if List.length checker_sections <> List.length defs then
        Error
          (Printf.sprintf
             "monitor checkpoint holds %d checker(s), %d constraint(s) given"
             (List.length checker_sections) (List.length defs))
      else
        let* db =
          Rtic_relational.Textio.parse_database
            (String.concat "\n" db_section)
        in
        build ?metrics ?tracer ?pool ~db defs checker_sections
          (fun ?metrics ?tracer d section ->
            Incremental.of_text ?metrics ?tracer ?config cat d
              (String.concat "\n" section))
    | _ -> Error "monitor checkpoint: missing database section"
