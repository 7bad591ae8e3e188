module Value = Codb_relalg.Value

type t =
  | Var of string
  | Cst of Value.t

let compare t1 t2 =
  match (t1, t2) with
  | Var a, Var b -> String.compare a b
  | Cst a, Cst b -> Value.compare a b
  | Var _, Cst _ -> -1
  | Cst _, Var _ -> 1

let equal t1 t2 = compare t1 t2 = 0

let vars terms =
  let add acc = function
    | Var v -> if List.mem v acc then acc else v :: acc
    | Cst _ -> acc
  in
  List.rev (List.fold_left add [] terms)

let pp ppf = function
  | Var v -> Fmt.string ppf v
  | Cst c -> Value.pp ppf c

let to_string t = Fmt.str "%a" pp t
