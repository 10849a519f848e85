module Database = Rtic_relational.Database

type t = {
  snaps : (int * Database.t) array;  (* non-empty, strictly increasing times *)
}

let initial ~time db = { snaps = [| (time, db) |] }

let last_time h = fst h.snaps.(Array.length h.snaps - 1)

let order_error time prev =
  Error (Printf.sprintf "non-increasing timestamp: %d after %d" time prev)

let extend h ~time db =
  if time <= last_time h then order_error time (last_time h)
  else Ok { snaps = Array.append h.snaps [| (time, db) |] }

let extend_exn h ~time db =
  match extend h ~time db with
  | Ok h -> h
  | Error m -> invalid_arg ("History.extend_exn: " ^ m)

(* Validate every timestamp first, then build the array once: extending
   snapshot by snapshot would copy the array per step, O(n^2) overall. *)
let of_snapshots = function
  | [] -> Error "empty history"
  | (t0, _) :: rest as snaps ->
    let rec check prev = function
      | [] -> Ok { snaps = Array.of_list snaps }
      | (t, _) :: rest ->
        if t <= prev then order_error t prev else check t rest
    in
    check t0 rest

let length h = Array.length h.snaps
let last h = Array.length h.snaps - 1

let check_pos h i =
  if i < 0 || i >= Array.length h.snaps then
    invalid_arg (Printf.sprintf "History: position %d out of range" i)

let time h i =
  check_pos h i;
  fst h.snaps.(i)

let db h i =
  check_pos h i;
  snd h.snaps.(i)

let snapshots h = Array.to_list h.snaps

let stored_tuples h =
  Array.fold_left (fun acc (_, d) -> acc + Database.cardinal d) 0 h.snaps

let pp ppf h =
  Array.iteri
    (fun i (t, d) ->
      if i > 0 then Format.pp_print_newline ppf ();
      Format.fprintf ppf "@[<v>@%d@,%a@]" t Database.pp d)
    h.snaps
