module Tuple = Codb_relalg.Tuple

let instantiate ~rule tuples = List.map (Tuple.instantiate_holes ~rule) tuples
