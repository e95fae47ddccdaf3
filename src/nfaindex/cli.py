"""Command line front end.

Data goes to stdout (or the -o path), diagnostics to stderr.  Exit codes:
0 success, 1 bad input (parse, validation, malformed relation, bad
parameters), 2 I/O failure, 3 internal invariant violation, 4 a check
verdict of invalid.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .automaton import (
    Nfa,
    gen_fixture,
    gen_random,
    gen_separation_family,
    parse_nfa,
    to_dot,
)
from .colex import (
    cfs_order,
    cfs_width,
    compare_report,
    max_colex_relation,
    max_colex_relation_from_quotient,
)
from .errors import (
    InternalInvariantViolation,
    InvalidParameter,
    NfaIndexError,
    UnknownFixture,
    ValidationError,
)
from .fs_partition import build_quotient, coarsest_fs_partition
from .oracle import (
    MAX_BRUTE_STATES,
    brute_coarsest_fs,
    brute_max_colex_relation,
    brute_width,
)
from .relations import (
    MAX_DENSE_STATES,
    _require_dense,
    check_colex_order,
    check_colex_relation,
    check_wheeler_order,
    check_wheeler_preorder,
    quotient_to_json_text,
    relation_from_json_dict,
    relation_from_plain_json,
    relation_to_json_text,
    width,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_INVARIANT = 3
EXIT_INVALID = 4

_CHECKERS = {
    "colex-relation": check_colex_relation,
    "colex-order": check_colex_order,
    "wheeler-order": check_wheeler_order,
    "wheeler-preorder": check_wheeler_preorder,
}


def _fixture(spec: str) -> Nfa:
    if spec.startswith("sep:"):
        try:
            n = int(spec[len("sep:"):])
        except ValueError:
            raise InvalidParameter(f"bad separation-family size in {spec!r}")
        return gen_separation_family(n)
    try:
        return gen_fixture(spec)
    except UnknownFixture:
        raise UnknownFixture(
            f"unknown fixture {spec!r} (expected fig2, wheeler3 or sep:<n>)")


def _load_automaton(args: argparse.Namespace) -> Nfa:
    if args.fixture is not None:
        return _fixture(args.fixture)
    if args.input is None:
        raise InvalidParameter("provide an input path or --fixture")
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_nfa(fh.read())


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _oracle_check(nfa: Nfa) -> None:
    # Cross-check against the exhaustive implementations; silently skipped
    # beyond their size guards.
    if nfa.n_states > MAX_BRUTE_STATES:
        return
    partition = coarsest_fs_partition(nfa)
    if brute_coarsest_fs(nfa) != partition:
        raise InternalInvariantViolation(
            "coarsest forward-stable partition disagrees with exhaustive search")
    rel = max_colex_relation(nfa)
    brute = brute_max_colex_relation(nfa)
    if brute != rel:
        raise InternalInvariantViolation(
            "maximum co-lex relation disagrees with exhaustive search")
    # analyze derives the relation from the quotient's order when the
    # partition merges states; a discrete one's quotient is the automaton.
    if partition.n_blocks < nfa.n_states and brute != max_colex_relation_from_quotient(nfa):
        raise InternalInvariantViolation(
            "maximum co-lex relation from the quotient disagrees with exhaustive search")
    if brute_width(rel) != width(rel).width:
        raise InternalInvariantViolation("relation width disagrees with exhaustive search")
    if brute_width(cfs_order(nfa)[0]) != cfs_width(nfa).width:
        raise InternalInvariantViolation("order width disagrees with exhaustive search")


def cmd_analyze(args: argparse.Namespace) -> int:
    nfa = _load_automaton(args)
    if args.oracle:
        _oracle_check(nfa)
    report = compare_report(nfa).to_json_dict()
    if args.format == "text":
        text = "".join(f"{k}: {json.dumps(v)}\n" for k, v in report.items())
    else:
        text = _json(report)
    _emit(args, text)
    return EXIT_OK


def cmd_cfs(args: argparse.Namespace) -> int:
    nfa = _load_automaton(args)
    if args.format == "dot":  # the automaton coloured by partition block
        _emit(args, to_dot(nfa, coarsest_fs_partition(nfa)))
    else:
        _emit(args, relation_to_json_text(cfs_order(nfa)[0], nfa.names) + "\n")
    return EXIT_OK


def cmd_maxrel(args: argparse.Namespace) -> int:
    nfa = _load_automaton(args)
    rel = max_colex_relation(nfa)
    _emit(args, relation_to_json_text(rel, nfa.names) + "\n")
    return EXIT_OK


def cmd_quotient(args: argparse.Namespace) -> int:
    nfa = _load_automaton(args)
    qm = build_quotient(nfa, coarsest_fs_partition(nfa))
    if args.format == "json":
        text = quotient_to_json_text(qm, nfa.names)
    elif args.format == "dot":
        text = to_dot(qm.quotient)
    else:
        text = qm.quotient.serialize()
    _emit(args, text)
    return EXIT_OK


def cmd_width(args: argparse.Namespace) -> int:
    nfa = _load_automaton(args)
    cert = width(max_colex_relation(nfa)) if args.rel == "maxrel" else cfs_width(nfa)
    _emit(args, _json(cert.to_json_dict(nfa.names)))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    nfa = _load_automaton(args)
    _require_dense(nfa.n_states, "the relation")  # before the file is read
    with open(args.relation, "r", encoding="utf-8") as fh:
        text = fh.read()
    rel = relation_from_plain_json(text, nfa)
    if rel is None:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"relation file is not valid JSON: {exc}")
        except ValueError:  # int() refuses numbers of more than 4300 digits
            raise ValidationError("relation file holds an integer too long to read")
        except RecursionError:
            raise ValidationError("relation file is nested too deeply to read")
        rel = relation_from_json_dict(data, nfa)
    ok, violation = _CHECKERS[args.kind](nfa, rel)
    out = {
        "kind": args.kind,
        "valid": ok,
        "violation": None if ok else {"rule": violation.rule,
                                      "detail": violation.detail},
    }
    _emit(args, _json(out))
    return EXIT_OK if ok else EXIT_INVALID


def cmd_gen(args: argparse.Namespace) -> int:
    if args.random:
        nfa = gen_random(args.states, args.alphabet, args.density, args.seed)
    elif args.fixture is not None:
        nfa = _fixture(args.fixture)
    else:
        raise InvalidParameter("choose --fixture or --random")
    text = to_dot(nfa) if args.format == "dot" else nfa.serialize()
    _emit(args, text)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.family is not None and args.random:
        raise InvalidParameter("--family and --random are mutually exclusive")
    if args.family is not None:
        if args.from_n is None or args.to_n is None:
            raise InvalidParameter("--family sep needs --from and --to")
        if args.to_n < args.from_n:
            raise InvalidParameter("--to must be >= --from")
        sizes = range(args.from_n, args.to_n + 1)
        # Output waits for every instance, so the first one over the dense limit
        # fails the run: raise its error before building any (n <= 4 fails first).
        if sizes[0] > 4 and sizes[-1] > MAX_DENSE_STATES:
            _require_dense(max(sizes[0], MAX_DENSE_STATES + 1), "the maximum co-lex relation")
        instances = map(gen_separation_family, sizes)
    elif args.random:
        if args.count < 1:
            raise InvalidParameter("--count must be >= 1")
        instances = (gen_random(args.states, args.alphabet, args.density, args.seed + i)
                     for i in range(args.count))
    else:
        raise InvalidParameter("choose --family sep or --random")

    reports = []
    for nfa in instances:
        if args.oracle:
            _oracle_check(nfa)
        reports.append(compare_report(nfa))

    if args.format == "json":
        text = _json([r.to_json_dict() for r in reports])
    else:
        lines = ["n,classes_R,classes_FS,width_R,width_FS,quasi_wheeler"]
        for r in reports:
            lines.append(f"{r.n_states},{r.classes_R},{r.classes_FS},"
                         f"{r.width_R},{r.width_FS},"
                         f"{'true' if r.quasi_wheeler else 'false'}")
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Usage errors belong to the bad-input exit code, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged.
    parser = _Parser(
        prog="nfaindex",
        description="Forward-stable partitions, co-lex state orders and "
                    "width certificates for NFAs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="automaton file in the text format")
            p.add_argument("--fixture", default=None,
                           help="built-in automaton: fig2, wheeler3 or sep:<n>")
        p.add_argument("-o", "--output", default=None,
                       help="write to this path instead of stdout")

    p = sub.add_parser("analyze", aliases=["compare"],
                       help="summary of both constructions (classes, widths, flags)")
    add_io(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cfs",
                       help="coarsest-forward-stable co-lex preorder of the states")
    add_io(p)
    p.add_argument("--format", choices=["json", "dot"], default="json",
                   help="json relation, or the automaton colored by class")
    p.set_defaults(func=cmd_cfs)

    p = sub.add_parser("maxrel", help="maximum co-lex relation of the states")
    add_io(p)
    p.set_defaults(func=cmd_maxrel)

    p = sub.add_parser("quotient",
                       help="coarsest forward-stable partition and its quotient")
    add_io(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("width", help="width with antichain and chain certificates")
    add_io(p)
    p.add_argument("--rel", choices=["cfs", "maxrel"], default="cfs",
                   help="which relation to measure")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("check", help="verify a relation against order axioms")
    add_io(p)
    p.add_argument("--relation", required=True,
                   help='relation JSON file: {"n": ..., "pairs": [[u, v], ...]}')
    p.add_argument("--kind", required=True, choices=sorted(_CHECKERS))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit a fixture or random automaton")
    add_io(p, with_input=False)
    p.add_argument("--fixture", default=None,
                   help="built-in automaton: fig2, wheeler3 or sep:<n>")
    p.add_argument("--random", action="store_true")
    p.add_argument("--states", type=int, default=6)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="tabulate analyze over a family of automata")
    add_io(p, with_input=False)
    p.add_argument("--family", choices=["sep"], default=None)
    p.add_argument("--from", dest="from_n", type=int, default=None)
    p.add_argument("--to", dest="to_n", type=int, default=None)
    p.add_argument("--random", action="store_true")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--states", type=int, default=6)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check each instance against exhaustive search")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NfaIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
