(** Network generators for the demo experiments: "we will measure the
    performance of various networks arranged in different topologies"
    (paper, Section 4).

    Every generated network uses one shared relation shape,
    [data(k: int, v: string)], at every node, with one coordination
    rule per directed edge (importer, source).  The rule is a plain
    schema translation by default; fractions of the rules can be given
    existential heads (projecting [v] away and re-introducing it as a
    marked null) and body comparison predicates, which is what the
    ablation experiments vary. *)

module Config = Codb_cq.Config

type shape =
  | Chain  (** node [i] imports from [i+1]; all data flows to node 0 *)
  | Ring  (** chain plus an edge closing the cycle *)
  | Star_in  (** the centre (node 0) imports from every leaf *)
  | Star_out  (** every leaf imports from the centre *)
  | Binary_tree  (** parents import from their children; flows to the root *)
  | Grid of int * int  (** rows × cols; import from right and lower neighbours *)
  | Random_graph of float  (** each ordered pair is an edge with probability p *)
  | Clique  (** every ordered pair is an edge *)

type params = {
  tuples_per_node : int;
  profile : Codb_workload.Datagen.profile;
  existential_frac : float;
      (** probability that a rule head projects [v] into an
          existential variable *)
  comparison_frac : float;
      (** probability that a rule body carries a [k <= bound]
          comparison *)
  connected : bool;
      (** add a chain backbone under [Random_graph] so the network is
          weakly connected *)
}

val default_params : params

val shape_name : shape -> string

val check_size : shape -> n:int -> (unit, string) result
(** [Error reason] when [shape] cannot have [n] nodes: fewer than one
    node, or a grid whose rows × cols is not [n]. *)

val edges : ?rng:Codb_workload.Rng.t -> shape -> n:int -> (int * int) list
(** Directed edges as (importer, source) index pairs.  [Random_graph]
    requires [rng].  @raise Invalid_argument when {!check_size}
    fails. *)

val node_name : int -> string
(** ["n<i>"]. *)

val data_relation : Codb_relalg.Schema.t
(** The shared [data(k: int, v: string)] schema. *)

val generate : ?params:params -> seed:int -> shape -> n:int -> Config.t
(** A full network description: [n] nodes with random base facts and
    one rule per edge.  The result always passes
    {!Config.validate}. *)

val rules_only : Config.t -> Config.t
(** Strip facts (keep nodes and rules) — the shape of the super-peer's
    broadcast rules file. *)
