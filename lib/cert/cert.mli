(** Externally checkable solve certificates (the robustness half of
    Reichl/Slivovsky/Szeider's "Certified DQBF Solving by Definition
    Extraction").

    A certificate is a self-contained text artifact tied to one instance
    by a fingerprint of its bytes:

    - SAT: a Skolem-AIG — inputs are the instance's universal variables,
      one output per existential, the declared Henkin sets in the header.
      Definition 2 of the paper makes verification a pure SAT question:
      the matrix with every existential replaced by its Skolem output
      must be a universal tautology.
    - UNSAT: a universal-expansion refutation — the full list of
      universal assignments whose expansion (existentials copied per
      assignment restricted to their dependency set) is propositionally
      unsatisfiable. Any subset of the full expansion being UNSAT is
      already sound evidence; we emit the full enumeration so the
      checker needs no completeness argument.
    - UNCERTIFIED: an explicit marker with a reason — large UNSAT
      instances where re-deriving the expansion under the sub-budget is
      hopeless never get a silent gap, they get a visible one.

    The artifact grammar is deliberately tiny so that [bin/certcheck]
    can re-parse it with no solver library code (see DESIGN.md §15):

    {v
    c <comment>
    s cert SAT|UNSAT|UNCERTIFIED
    h <fnv64-hex of the instance bytes>
    a u1 u2 ... 0                  (universal variables, 1-based)
    d y x1 ... xk 0                (one per existential: declared deps)
    -- SAT body --
    n <num_nodes>                  (node 0 is constant false)
    i <node> <uvar>                (input node, labeled by a universal)
    g <node> <lit0> <lit1>         (AND gate; lit = 2*node + complement)
    o <y> <lit>                    (Skolem output of existential y)
    -- UNSAT body --
    x <count>
    u l1 ... lk 0                  (one full universal assignment each)
    -- UNCERTIFIED body --
    r <reason>
    v}
    Nodes are numbered contiguously from 1 in topological order (a gate
    only references smaller node ids). *)

type aig = {
  num_nodes : int;  (** node ids are [0 .. num_nodes - 1]; 0 is false *)
  inputs : (int * int) list;  (** node, universal variable (1-based) *)
  gates : (int * int * int) list;  (** node, fanin lits (2*node + sign) *)
  outputs : (int * int) list;  (** existential (1-based), root literal *)
}

type body =
  | Sat_cert of aig
  | Unsat_cert of int list list
      (** one full universal assignment per line, signed 1-based *)
  | Uncertified of string  (** reason; no silent gaps *)

type t = {
  fingerprint : string;  (** FNV-1a 64 of the instance bytes, lowercase hex *)
  univs : int list;  (** 1-based, sorted *)
  deps : (int * int list) list;  (** existential -> declared deps, 1-based *)
  body : body;
}

val fingerprint : string -> string
(** FNV-1a 64 of a byte string, 16 lowercase hex digits. *)

val status : t -> string
(** ["SAT"], ["UNSAT"] or ["UNCERTIFIED"]. *)

val inconsistent_reason : string
(** The reason prefix {!of_unsat} uses when the full expansion turned
    out {e satisfiable} — i.e. the UNSAT verdict itself is suspect. The
    [Full]-level audit treats such an artifact as a violation rather
    than an honest capacity gap. *)

val is_inconsistent : t -> bool

val of_skolem : instance_text:string -> Dqbf.Pcnf.t -> Dqbf.Skolem.t -> t
(** SAT certificate from a Skolem model: each existential's cone is
    exported (Skolem functions referencing other defined existentials
    are substituted through, so the artifact is closed over universals);
    an existential the model leaves undefined gets constant false and
    the checker decides. *)

val of_unsat :
  ?budget:Hqs_util.Budget.t -> ?max_univs:int -> instance_text:string -> Dqbf.Pcnf.t -> t
(** UNSAT certificate by full universal expansion, re-derived and
    confirmed with an internal SAT refutation under a [frac:0.25]
    sub-budget. More than [max_univs] universals (default 12), a budget
    timeout, or an inconclusive refutation yield [Uncertified] with the
    reason spelled out. *)

val render : t -> string
(** The artifact text. This library has no reader for it: [bin/certcheck],
    which shares no code with the solver, is the one parser of the grammar
    (DESIGN.md §15.2). *)

val write_file : string -> t -> unit

val check_structural : instance_text:string -> Dqbf.Pcnf.t -> t -> (unit, string) result
(** The cheap half of {!check}: fingerprint match, header/prefix
    agreement (same universal and existential sets, declared deps a
    subset of the instance's), Skolem outputs structurally supported
    only by their declared deps, UNSAT assignment lines total over the
    universals. No SAT solving. *)

val check :
  ?budget:Hqs_util.Budget.t -> instance_text:string -> Dqbf.Pcnf.t -> t -> (unit, string) result
(** {!check_structural} plus the semantic question: SAT certificates are
    rebuilt into a {!Dqbf.Skolem.t} and verified as a universal
    tautology against the instance matrix; UNSAT certificates have
    their expansion refuted with the library SAT solver. [Uncertified]
    artifacts pass (they claim nothing) unless {!is_inconsistent}. *)
