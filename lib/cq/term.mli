(** Terms of conjunctive queries: variables and constants. *)

type t =
  | Var of string
  | Cst of Codb_relalg.Value.t

val compare : t -> t -> int

val equal : t -> t -> bool

val vars : t list -> string list
(** Variable names occurring in a term list, without duplicates, in
    first-occurrence order. *)

val pp : t Fmt.t

val to_string : t -> string
