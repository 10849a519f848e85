module R = Rtic_relational

type t = {
  cat : R.Schema.Catalog.t;
  init : R.Database.t;
  steps : (int * R.Update.transaction) list;
}

let ( let* ) r f = Result.bind r f

let validate cat init steps =
  if steps = [] then Error "trace has no transactions"
  else
    let rec go prev_time db = function
      | [] -> Ok ()
      | (time, txn) :: rest ->
        (match prev_time with
         | Some p when time <= p ->
           Error (Printf.sprintf "non-increasing timestamp: %d after %d" time p)
         | _ ->
           let* db = R.Update.apply db txn in
           go (Some time) db rest)
    in
    let* () = go None init steps in
    ignore cat;
    Ok ()

let make cat ?init steps =
  let init = match init with Some db -> db | None -> R.Database.create cat in
  let* () = validate cat init steps in
  Ok { cat; init; steps }

let make_exn cat ?init steps =
  match make cat ?init steps with
  | Ok t -> t
  | Error m -> invalid_arg ("Trace.make_exn: " ^ m)

let length t = List.length t.steps

(* Replay into a reversed snapshot list, then build the history once;
   [History.of_snapshots] reports a timestamp fault with the same text
   [History.extend] would. *)
let materialize t =
  let* snaps_rev, _ =
    List.fold_left
      (fun acc (time, txn) ->
        let* snaps_rev, db = acc in
        let* db = R.Update.apply db txn in
        Ok ((time, db) :: snaps_rev, db))
      (Ok ([], t.init))
      t.steps
  in
  match snaps_rev with
  | [] -> Error "trace has no transactions"
  | _ -> History.of_snapshots (List.rev snaps_rev)

let materialize_exn t =
  match materialize t with
  | Ok h -> h
  | Error m -> failwith ("Trace.materialize: " ^ m)

let parse text =
  let lines = String.split_on_char '\n' text in
  (* First pass: schemas, then blocks. *)
  let rec go lineno cat blocks current = function
    | [] ->
      let blocks =
        match current with
        | None -> List.rev blocks
        | Some (time, ops) -> List.rev ((time, List.rev ops) :: blocks)
      in
      let steps = blocks in
      (match make cat steps with
       | Ok t -> Ok t
       | Error m -> Error m)
    | line :: rest ->
      let body = R.Textio.strip_comment line in
      if body = "" then go (lineno + 1) cat blocks current rest
      else if String.length body >= 7 && String.sub body 0 7 = "schema " then
        match R.Textio.parse_schema_line body with
        | Ok s -> go (lineno + 1) (R.Schema.Catalog.add s cat) blocks current rest
        | Error m -> Error (Printf.sprintf "line %d: %s" lineno m)
      else if body.[0] = '@' then
        let time_s = String.sub body 1 (String.length body - 1) in
        (match int_of_string_opt (String.trim time_s) with
         | None -> Error (Printf.sprintf "line %d: bad timestamp %S" lineno body)
         | Some time ->
           let blocks =
             match current with
             | None -> blocks
             | Some (t, ops) -> (t, List.rev ops) :: blocks
           in
           go (lineno + 1) cat blocks (Some (time, [])) rest)
      else if body.[0] = '+' || body.[0] = '-' then
        let sign = body.[0] in
        let fact_s = String.sub body 1 (String.length body - 1) in
        (match R.Textio.parse_fact fact_s with
         | Error m -> Error (Printf.sprintf "line %d: %s" lineno m)
         | Ok (rel, tup) ->
           let op =
             if sign = '+' then R.Update.Insert (rel, tup)
             else R.Update.Delete (rel, tup)
           in
           (match current with
            | None ->
              Error
                (Printf.sprintf "line %d: update before any '@time' marker"
                   lineno)
            | Some (t, ops) -> go (lineno + 1) cat blocks (Some (t, op :: ops)) rest))
      else Error (Printf.sprintf "line %d: unrecognized line %S" lineno body)
  in
  go 1 R.Schema.Catalog.empty [] None lines

let to_string t =
  let buf = Buffer.create 512 in
  List.iter
    (fun s ->
      Buffer.add_string buf (R.Textio.schema_to_string s);
      Buffer.add_char buf '\n')
    (R.Schema.Catalog.schemas t.cat);
  let init_ops =
    R.Database.fold
      (fun name r acc ->
        R.Relation.fold (fun tup acc -> R.Update.Insert (name, tup) :: acc) r acc)
      t.init []
    |> List.rev
  in
  let steps =
    match t.steps, init_ops with
    | (t0, txn0) :: rest, _ :: _ -> (t0, init_ops @ txn0) :: rest
    | steps, _ -> steps
  in
  List.iter
    (fun (time, txn) ->
      Buffer.add_string buf (Printf.sprintf "@%d\n" time);
      List.iter
        (fun op ->
          let sign, rel, tup =
            match op with
            | R.Update.Insert (rel, tup) -> '+', rel, tup
            | R.Update.Delete (rel, tup) -> '-', rel, tup
          in
          Buffer.add_char buf sign;
          Buffer.add_string buf (R.Textio.fact_to_string rel tup);
          Buffer.add_char buf '\n')
        txn)
    steps;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
