module Database = Rtic_relational.Database
module Update = Rtic_relational.Update
module Trace = Rtic_temporal.Trace
module Formula = Rtic_mtl.Formula
module Rewrite = Rtic_mtl.Rewrite
module Safety = Rtic_mtl.Safety
module Closure = Rtic_mtl.Closure
module Pretty = Rtic_mtl.Pretty
module Valrel = Rtic_eval.Valrel
module Fo = Rtic_eval.Fo

(* A parallel run keeps whole sharing components in one shard: each shard
   is a subset of the constraints with its own kernel. *)
type body =
  | Single of Kernel.t
  | Sharded of {
      fan : Fanout.t;
      kernels : Kernel.t array;  (* aligned with [Fanout.groups fan] *)
    }

type t = {
  names : string list;  (* registration order *)
  body : body;
  db : Database.t;
  count : int;
  last_time : int option;
  metrics : Metrics.t option;
  tracer : Tracer.t option;
}

let ( let* ) r f = Result.bind r f

module Fmap = Map.Make (struct
  type t = Formula.t

  let compare = Formula.compare
end)

(* Sharing components: constraints i and j are connected iff their
   temporal closures intersect (share an auxiliary relation). Keeping a
   component within one shard preserves the sharing optimization — and
   with it the exact per-node statistics of the sequential run: every
   auxiliary relation is still maintained exactly once. Returns the
   components as index lists, ordered by their smallest member. *)
let components norms =
  let n = List.length norms in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  let seen = ref Fmap.empty in
  List.iteri
    (fun i norm ->
      Array.iter
        (fun f ->
          match Fmap.find_opt f !seen with
          | Some j -> union i j
          | None -> seen := Fmap.add f i !seen)
        (Closure.nodes (Closure.build norm)))
    norms;
  let tbl = Hashtbl.create 8 in
  for i = n - 1 downto 0 do
    let r = find i in
    Hashtbl.replace tbl r
      (i :: Option.value ~default:[] (Hashtbl.find_opt tbl r))
  done;
  Hashtbl.fold (fun r members acc -> (r, members) :: acc) tbl []
  |> List.sort compare
  |> List.map snd

(* Exactly the combination Kernel.create performs — the global closure
   built here must enumerate the same nodes in the same order as the
   sequential run's kernel, because its order is the main recorder's
   gauge-row order. *)
let combined_closure norms =
  Closure.build
    (List.fold_left (fun acc f -> Formula.And (acc, f)) Formula.True norms)

let build_sharded ?metrics pool config names norms =
  let comps = components norms in
  let k = min (Pool.size pool) (List.length comps) in
  if k < 2 then None
  else begin
    let names_arr = Array.of_list names in
    let norms_arr = Array.of_list norms in
    (* The main recorder gets the global node rows up front, in the order
       the sequential single-kernel run would have registered them. *)
    let reg =
      Option.map
        (fun main ->
          let gcl = combined_closure norms in
          let gnames =
            Array.to_list (Array.map Pretty.to_string (Closure.nodes gcl))
          in
          (gcl, Metrics.register_nodes main gnames))
        metrics
    in
    let groups = Array.make k [] in
    List.iteri
      (fun c members -> groups.(c mod k) <- List.rev_append members groups.(c mod k))
      comps;
    let fan =
      Fanout.make ?metrics pool
        (Array.map
           (fun members -> Array.of_list (List.sort compare members))
           groups)
    in
    let kernels =
      Array.mapi
        (fun s idx ->
          let kernel =
            Kernel.create ?metrics:(Fanout.shard_metrics fan s)
              ~root_names:(Array.to_list (Array.map (fun i -> names_arr.(i)) idx))
              config
              (Array.to_list (Array.map (fun i -> norms_arr.(i)) idx))
          in
          Option.iter
            (fun (gcl, base) ->
              Fanout.mirror fan s
                (Array.map
                   (fun f -> base + Closure.id_exn gcl f)
                   (Kernel.node_formulas kernel)))
            reg;
          kernel)
        (Fanout.groups fan)
    in
    Some (Sharded { fan; kernels })
  end

let create ?metrics ?tracer ?pool ?(config = Incremental.default_config) cat
    defs =
  let names = List.map (fun (d : Formula.def) -> d.name) defs in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then Error "duplicate constraint names"
  else
    let* norms =
      List.fold_left
        (fun acc (d : Formula.def) ->
          let* acc = acc in
          let* () = Safety.monitorable cat d in
          if not (Formula.past_only d.body) then
            Error
              (Printf.sprintf
                 "constraint %s uses future operators; the shared monitor is \
                  past-only"
                 d.name)
          else Ok (Rewrite.normalize d.body :: acc))
        (Ok []) defs
      |> Result.map List.rev
    in
    let body =
      match pool with
      | Some p when Pool.size p > 1 && List.length defs > 1 ->
        (match build_sharded ?metrics p config names norms with
         | Some body -> body
         | None ->
           Single (Kernel.create ?metrics ?tracer ~root_names:names config norms))
      | _ ->
        Single (Kernel.create ?metrics ?tracer ~root_names:names config norms)
    in
    Ok
      { names;
        body;
        db = Database.create cat;
        count = 0;
        last_time = None;
        metrics;
        tracer }

let step m ~time txn =
  match m.last_time with
  | Some t0 when time <= t0 ->
    Error (Printf.sprintf "non-increasing timestamp: %d after %d" time t0)
  | _ ->
    Tracer.span m.tracer ~cat:"txn" ~arg:(string_of_int time) @@ fun () ->
    let t0 =
      match m.metrics with None -> 0.0 | Some _ -> Unix.gettimeofday ()
    in
    let* db =
      Tracer.span m.tracer ~cat:"apply" (fun () -> Update.apply m.db txn)
    in
    let* body, verdicts =
      match m.body with
      | Single kernel ->
        (try
           let kernel, verdicts = Kernel.step kernel ~time db in
           Ok (Single kernel, verdicts)
         with Fo.Error msg -> Error msg)
      | Sharded sh ->
        (* A shard's error is charged to its first constraint: shards are
           ordered by their first constraint, so the lowest-index error is
           the lowest shard's. *)
        let results, err =
          Fanout.run ?tracer:m.tracer sh.fan (fun s group ->
              match Kernel.step sh.kernels.(s) ~time db with
              | kernel, verdicts ->
                (List.mapi (fun j v -> (group.(j), (kernel, v))) verdicts, None)
              | exception Fo.Error e -> ([], Some (group.(0), e)))
        in
        (match err with
         | Some (_, e) -> Error e
         | None ->
           (* One logical kernel step per transaction, exactly as the
              single shared kernel counts. *)
           Option.iter Metrics.incr_steps m.metrics;
           let get i = Option.get results.(i) in
           let kernels =
             Array.map (fun g -> fst (get g.(0))) (Fanout.groups sh.fan)
           in
           Ok
             ( Sharded { sh with kernels },
               List.init (Array.length results) (fun i -> snd (get i)) ))
    in
    let reports =
      List.filter_map
        (fun (name, v) ->
          if Valrel.holds v then None
          else
            Some { Monitor.constraint_name = name; position = m.count; time })
        (List.combine m.names verdicts)
    in
    (match m.metrics with
     | None -> ()
     | Some mx ->
       Metrics.record_latency mx (Unix.gettimeofday () -. t0);
       Metrics.add_violations mx (List.length reports));
    Ok
      ( { m with body; db; count = m.count + 1; last_time = Some time },
        reports )

let run_trace ?metrics ?tracer ?pool ?config defs (tr : Trace.t) =
  let* m =
    create ?metrics ?tracer ?pool ?config (Database.catalog tr.Trace.init) defs
  in
  let m = { m with db = tr.Trace.init } in
  let* _, reports_rev =
    List.fold_left
      (fun acc (time, txn) ->
        let* m, out = acc in
        let* m, rs = step m ~time txn in
        Ok (m, List.rev_append rs out))
      (Ok (m, []))
      tr.Trace.steps
  in
  Ok (List.rev reports_rev)

let kernels m =
  match m.body with
  | Single k -> [ k ]
  | Sharded sh -> Array.to_list sh.kernels

let space m = List.fold_left (fun acc k -> acc + Kernel.space k) 0 (kernels m)

let shard_count m =
  match m.body with Single _ -> 1 | Sharded sh -> Array.length sh.kernels

let shared_nodes m =
  List.fold_left (fun acc k -> acc + Kernel.node_count k) 0 (kernels m)

let unshared_nodes m =
  List.fold_left
    (fun acc k ->
      List.fold_left
        (fun acc root -> acc + Closure.count (Closure.build root))
        acc (Kernel.roots k))
    0 (kernels m)
