(* Order statistics for the benchmark's samples. *)

(* Linear interpolation between closest ranks; 0 on no samples. *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let sum l = List.fold_left ( +. ) 0. l
