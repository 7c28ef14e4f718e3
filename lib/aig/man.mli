(** And-Inverter Graphs with structural hashing.

    Nodes are two-input AND gates or inputs; edges carry a complement bit.
    An edge (literal) is an int: [2*node + complement]. Node 0 is the
    constant-false node, so literal 0 is [false] and literal 1 is [true].
    Inputs are labelled with external variable ids (the DQBF/QBF variables),
    which survive compaction.

    The manager optionally enforces a node budget; exceeding it raises
    {!Hqs_util.Budget.Out_of_memory_budget}, which the benchmark harness
    reports as a memout (the paper's 8 GB cap). Every manager is capped at
    2^30 nodes in any case, so a fanin pair packs into one int key.

    Cone walks run on node-indexed int buffers owned by the manager. Each
    walk fixes its node order before any callback runs, and a walk started
    from inside another walk's callback (on the same manager) gets buffers
    of its own, so nesting is safe. *)

type t
type lit = int

val false_ : lit
val true_ : lit

val create : ?node_limit:int -> unit -> t

val num_nodes : t -> int
(** Total nodes allocated (including constant and inputs). *)

val num_ands : t -> int
val num_inputs : t -> int

(* ------------------------------------------------------------ literals *)

val compl_ : lit -> lit
(** Complement an edge. *)

val apply_sign : lit -> neg:bool -> lit
val node_of : lit -> int
val is_compl : lit -> bool
val is_const : lit -> bool
val is_true : lit -> bool
val is_false : lit -> bool
val is_input : t -> lit -> bool
val is_and : t -> lit -> bool

val var_of_input : t -> lit -> int
(** Variable id of an input literal (sign ignored).
    @raise Invalid_argument if the node is not an input. *)

val fanins : t -> lit -> lit * lit
(** Fanin edges of an AND node. @raise Invalid_argument otherwise. *)

(* --------------------------------------------------------- construction *)

val input : t -> int -> lit
(** [input m v] returns the (positive) input literal for variable [v],
    creating the input node on first use. *)

val mk_and : t -> lit -> lit -> lit
val mk_or : t -> lit -> lit -> lit
val mk_xor : t -> lit -> lit -> lit
val mk_iff : t -> lit -> lit -> lit
val mk_ite : t -> lit -> lit -> lit -> lit

val mk_and_list : t -> lit list -> lit
(** Balanced conjunction (keeps the graph shallow). *)

val mk_or_list : t -> lit list -> lit

(* -------------------------------------------------------------- queries *)

val support : t -> lit -> Hqs_util.Bitset.t
(** Set of variable ids the cone of [lit] depends on (syntactically). *)

val depends_on : t -> lit list -> int -> bool list
(** [depends_on m roots v]: for each root, whether variable [v] is in its
    {!support}. One walk over the union of the cones. *)

val and_conjuncts : t -> lit -> lit list
(** Maximal decomposition of the root as a conjunction: walks the top
    AND-tree through non-complemented edges, returning the deduplicated
    leaves. A literal that is not a plain AND node is returned alone. *)

val or_disjuncts : t -> lit -> lit list
(** Dual decomposition as a disjunction. *)

val cone_size : t -> lit -> int
(** Number of AND nodes in the cone. *)

val eval : t -> lit -> (int -> bool) -> bool
(** Evaluate under a variable assignment. *)

val iter_cone : t -> lit list -> (int -> unit) -> unit
(** Apply a function to every node index in the cones of the given roots, in
    topological (fanin-first) order, each node once. The order is that of a
    depth-first search that pushes the roots in list order onto a stack and
    explores fanin1 before fanin0; it is fixed before [f] first runs, so [f]
    may build nodes and start other walks. *)

(* ------------------------------------------------------- transformations *)

val cofactor : t -> lit -> var:int -> value:bool -> lit
(** Substitute a constant for a variable. *)

val compose : t -> lit -> (int -> lit option) -> lit
(** Simultaneous substitution of input variables by functions. Variables
    mapped to [None] stay. *)

val compose_list : t -> lit list -> (int -> lit option) -> lit list
(** [compose] applied to each root, in one walk whose memo is shared across
    the roots: a subgraph common to several roots is substituted once. *)

val exists : t -> lit -> var:int -> lit
(** [cofactor 0 OR cofactor 1] — existential quantification. *)

val forall : t -> lit -> var:int -> lit
(** [cofactor 0 AND cofactor 1] — universal quantification. *)

(** {2 Localized quantification}

    Each of these equals {!exists} semantically, but moves the quantifier
    past the parts of the formula that do not mention [var], so that only
    the parts that do are cofactored. Universal quantification is the dual,
    [compl_ (exists_* m (compl_ root) ~var)]. *)

val exists_root : t -> lit -> var:int -> lit
(** Root-level rule. ∃ distributes over the root's {!or_disjuncts}; when
    the root is not a disjunction, ∃v.(A ∧ B) = A ∧ ∃v.B over its
    {!and_conjuncts}, where A is the conjunction of those free of [var].
    The literals of A appear unchanged among the result's conjuncts. *)

val exists_pushed : t -> lit -> var:int -> lit
(** Node-level rule: ∃ is pushed down the graph, memoised per literal. It
    distributes over every OR (complemented AND) and stays on the one fanin
    of an AND that depends on [var]. The ANDs whose fanins both depend on
    [var] are cofactored, all of them in one {!compose_list} walk per
    value. *)

val exists_localized : t -> lit -> var:int -> cone:int -> lit * int
(** The guarded combination, given [cone = cone_size m root]: the result of
    {!exists_root}, unless its cone is larger than [cone]; then also that of
    {!exists_pushed}, and the one with the smaller cone. Returns the result
    and its {!cone_size}. *)

val compact : t -> lit list -> t * lit list
(** Copy the cones of the given roots into a fresh manager (dropping garbage
    nodes); input variable ids are preserved. The new manager inherits the
    node limit. *)

val set_node_limit : t -> int option -> unit

val node_limit : t -> int option
(** Current node budget, if any. *)

(* --------------------------------------------------------- introspection *)

(** Raw access to the manager's representation, for the soundness auditor
    ([Check.audit_man]) and for its tests, which seed deliberate corruption.
    Solver code must not use this: the mutators can break every invariant
    the rest of the module relies on. *)
module Internal : sig
  val raw_fanin0 : t -> int -> int
  (** Raw fanin-0 slot of a node: an edge for AND nodes, [-1] for inputs,
      [-2] for the constant node. *)

  val raw_fanin1 : t -> int -> int
  (** Raw fanin-1 slot: an edge for AND nodes, the variable label for
      inputs, [-2] for the constant node. *)

  val strash_find : t -> int -> int -> int option
  (** Structural-hash lookup of an ordered fanin pair. *)

  val strash_iter : t -> (int -> int -> int -> unit) -> unit
  (** Iterate every structural-hash binding as [f fanin0 fanin1 node],
      including shadowed duplicate bindings. *)

  val strash_size : t -> int
  val input_vars_size : t -> int

  val input_node_of_var : t -> int -> int
  (** Node index registered for a variable, [-1] if absent. *)

  val set_fanin : t -> node:int -> f0:int -> f1:int -> unit
  (** Corruption hook: overwrite both fanin slots of a node. *)

  val strash_add : t -> int -> int -> int -> unit
  (** Corruption hook: add a (possibly bogus) structural-hash binding. *)

  val strash_remove : t -> int -> int -> unit
  (** Corruption hook: drop the newest binding for a fanin pair. *)
end
