(** Repo-specific static analysis: a compiler-libs [Ast_iterator] pass
    enforcing the conventions that keep the run-time auditor ({!Check})
    honest.

    Rules:
    - [Catch_all] — [try ... with _ ->] or [with e ->]: a bare handler
      swallows [Budget.Timeout]/[Check.Violation] aborts;
    - [Poly_compare] — first-class [( = )]/[( <> )], any use of
      polymorphic [compare] or [Hashtbl.hash] (applied [a = b] is fine);
    - [Obj_magic] — any [Obj.magic];
    - [Failwith_lib] — [failwith] under a [lib/] path segment, except the
      allowlisted DIMACS-family parsers where [Failure] is the documented
      parse-error channel;
    - [Missing_mli] — a [lib/] implementation without a sibling [.mli];
    - [Raw_fd] — raw [Unix.openfile]/[Unix.pipe]/[Unix.socket] outside
      [lib/exec]: descriptors opened elsewhere have none of the
      supervisor's close-on-exec and cleanup discipline and leak into
      forked sweep workers;
    - [Wall_clock] — [Unix.gettimeofday]/[Unix.time] outside [lib/util]:
      solver paths must use the monotonic [Budget.now], wall time breaks
      budgets and trace timestamps under clock steps;
    - [Mono_clock_span] — [Sys.time], the low-level [Mono.now] or
      [Unix.clock_gettime] under [lib/] outside [lib/util]: Obs span and
      event timestamps must all come from [Budget.now] so that spans
      recorded in forked workers merge onto the supervisor's timebase;
    - [No_stdout] — [Printf.printf]/[print_endline]/[print_string]/...
      under [lib/] outside [lib/harness]: solver stdout is a
      machine-readable channel (verdict lines, CSV, JSON baselines), so
      library code must report through the harness or the Obs sinks;
    - [Fork_site] — [Unix.fork] under [lib/] or [bin/] outside
      [lib/exec/pool.ml]: [Exec.Pool] is the one fork site, the one
      place that resets fork-inherited state, closes the parent's
      descriptors, enforces the wall-clock kill and classifies the
      child's death;
    - [Cert_isolation] — a module-qualified reference, [open] or module
      alias rooted in any repo library inside [bin/certcheck.ml]: the
      independent certificate verifier's trust story is that it shares
      no code with the solver it checks, so even a source-level
      reference (which would motivate adding the link dependency the
      dune stanza forbids) is a finding;
    - [Syntax] — the file does not parse (also covers unreadable files).

    Suppression: a comment containing [lint: allow <rule-name>] on the
    diagnostic's line or the line directly above silences it, e.g.
    [(* lint: allow poly-compare *)]. *)

type rule =
  | Catch_all
  | Poly_compare
  | Obj_magic
  | Failwith_lib
  | Missing_mli
  | Raw_fd
  | Wall_clock
  | Mono_clock_span
  | No_stdout
  | Fork_site
  | Cert_isolation
  | Syntax

val rule_name : rule -> string
(** ["catch-all"], ["poly-compare"], ["obj-magic"], ["failwith-lib"],
    ["missing-mli"], ["raw-fd"], ["wall-clock"], ["mono-clock-span"],
    ["no-stdout"], ["fork-site"], ["cert-isolation"], ["syntax"] — the names used by
    suppression comments. *)

val all_rules : rule list
(** Every rule, in a stable order — the single source for the
    [bin/lint --help] rule listing and its coverage test. *)

val rule_doc : rule -> string
(** One-paragraph prose description of the rule, used verbatim in the
    [bin/lint] man page. *)

type diag = { file : string; line : int; col : int; rule : rule; msg : string }

(** {2 Tool-neutral findings}

    [bin/lint] and [bin/deepcheck] share one diagnostic surface: the
    same human line format, the same one-line JSON document, the same
    suppression convention — so downstream tooling parses both with one
    reader. *)

type finding = { f_file : string; f_line : int; f_col : int; f_rule : string; f_msg : string }

val finding_of_diag : diag -> finding

type format = Human | Json

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [rule] message]. *)

val render_json : tool:string -> finding list -> string
(** One-line JSON document
    [{"tool":T,"findings":[{"file":..,"line":..,"col":..,"rule":..,"msg":..},...],"count":N}].
    The output parses back through [Obs.Json.parse] (escaping is
    compatible; this library stays a leaf and cannot link [obs]). *)

val print_findings : tool:string -> format -> finding list -> unit
(** Print to stdout. [Human] is byte-identical to the historical
    [bin/lint] output: one {!pp_finding} line per finding plus a
    trailing ["<tool>: N finding(s)"] count line, and {e nothing} on a
    clean run. [Json] always prints exactly one {!render_json} document,
    clean or not. *)

val suppressed_by_marker : lines:string array -> marker:string -> int -> bool
(** [suppressed_by_marker ~lines ~marker line]: does [marker] occur on
    [line] (1-based) or the line directly above? The shared engine
    behind [lint: allow <rule>] and [deepcheck: allow <rule>]. *)

val lint_source : path:string -> string -> diag list
(** Lint one source text ([path] selects [.mli] handling and the
    [Failwith_lib] scope; it is not read). Allowlist and suppression
    comments are NOT applied — callers get the raw findings. *)

val check_missing_mli : string list -> diag list
(** Pure [Missing_mli] pass over a file list: flags every [lib/] [.ml]
    with no corresponding [.mli] in the same list. *)

val lint_paths : string list -> diag list
(** Walk files and directories (skipping [_build], [.git] and dotfiles),
    lint every [.ml]/[.mli], apply the allowlist and suppression
    comments, and append the {!check_missing_mli} pass. Unreadable
    directories are skipped here (the pure API stays total); {!run}
    turns them into a usage error. *)

val run : ?format:format -> string list -> int
(** CLI driver: print diagnostics in [format] (default [Human]), return
    the exit code — 0 clean, 1 findings, 2 usage error (no paths, a path
    that does not exist or cannot be read, or a path contributing no
    [.ml]/[.mli] files — nothing a CI gate passes is ever silently
    skipped). Usage errors go to stderr as prose in both formats. *)
