"""Command-line front end: counting, extensions, axiom reports, normal forms, evaluation.

Every command prints one JSON object per line on stdout (``--pretty`` switches to
aligned human-readable text).  Errors go to stderr as ``{"error": code,
"message": ...}`` with exit code 1 for bad inputs and 2 for computation
failures, so batch drivers can tell the two apart.  Flags that take a diagram
or a task accept either a literal string or a path to a file holding one.

`homcount` and `extensions` print ``"primes_used": []`` and ``"seed": null``:
no count reads a character table or a prime.  A non-abelian group is counted
on its class algebra (the class power map at genus 1, traces of the commutator
sum's multiplication above it), an abelian group through its dual group.  Both
print an extension count as a JSON number when it is an integer and as an
``"a/b"`` string otherwise.  When |Aut Γ| is refused at a limit, `homcount`
still prints its hom and epi counts, with ``"extensions": null`` and the
refusal under ``extensions_refused``; `extensions` exits with the refusal.
No epimorphism means no extension: an epi count of 0 prints 0 extensions
without counting |Aut Γ|.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .chartab import character_table_mod, split_primes
from .cobordism import canonicalize, invariant_of, parse_diagram
from .dw import (
    FREE,
    DWAlgebra,
    RelatorSpec,
    classification_data,
    counting_summary,
    evaluate_dw,
)
from .errors import ComputationError, ValidationError
from .frobenius import UniversalAlgebra, applicable_axioms, check_axioms, evaluate_diagram
from .oracle import EnumerationTask, count_epis, count_solutions, run_task
from .pgroup import group_from_spec
from .units import INF, level_to_json


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ValidationError instead of exiting."""

    def error(self, message):
        raise ValidationError("bad-spec", message)


def _level_flag(text: str):
    if text.lower() in ("inf", "infinity"):
        return INF
    try:
        return int(text)
    except ValueError:
        raise ValidationError("bad-level", f"level must be a positive integer or 'inf', got {text!r}")


def _text_or_file(value: str) -> str:
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            return fh.read()
    return value


def _spec_from_flags(args) -> RelatorSpec:
    if args.free is not None:
        if args.n is not None or args.r is not None:
            raise ValidationError("bad-spec", "--free excludes --n/--r")
        return FREE(args.free)
    if args.n is None or args.r is None:
        raise ValidationError("bad-spec", "need either --free RANK or both --n and --r")
    return RelatorSpec(args.n, args.r)


def _default_prime(G, flag):
    return flag if flag is not None else split_primes(G, count=1)[0]


# -- command handlers ---------------------------------------------------------------------


def _cmd_homcount(args):
    G = group_from_spec(args.group)
    spec = _spec_from_flags(args)
    out = counting_summary(spec, G)
    out["seed"] = None  # no count reads a character table
    if args.verify:
        task = EnumerationTask(G, spec, budget=args.budget)
        scanned = (count_solutions(task), count_epis(task))
        if scanned != (out["hom_count"], out["epi_count"]):
            raise ComputationError(
                "invariant",
                f"formula gave hom={out['hom_count']}, epi={out['epi_count']}; "
                f"the oracle scan gave hom={scanned[0]}, epi={scanned[1]}",
            )
        out["verified"] = True
    return [out]


def _cmd_extensions(args):
    G = group_from_spec(args.group)
    if args.free is not None:
        if args.degree is not None or args.r is not None:
            raise ValidationError("bad-spec", "--free excludes --degree/--r")
        spec = FREE(args.free)
    else:
        if args.degree is None or args.r is None:
            raise ValidationError("bad-spec", "need either --free RANK or both --degree and --r")
        if args.degree <= 0:
            raise ValidationError("bad-spec", f"degree must be positive, got {args.degree}")
        if args.degree % 2:
            raise ValidationError("odd-degree", f"no base field has odd degree {args.degree} here")
        spec = RelatorSpec(args.degree // 2 + 1, args.r)
    out = counting_summary(spec, G)
    if out["extensions"] is None:
        raise ValidationError(out["extensions_refused"]["error"], out["extensions_refused"]["message"])
    return [
        {
            "extensions": out["extensions"],
            "epi_count": out["epi_count"],
            "spec": str(spec),
            "seed": None,
        }
    ]


def _parse_levels(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValidationError("bad-level", f"bad level range {text!r}")
    else:
        lo, hi = 1, int(text)
    if lo < 1 or hi < lo:
        raise ValidationError("bad-level", f"bad level range {text!r}")
    return tuple(range(lo, hi + 1)) + (INF,)


def _cmd_axioms(args):
    if args.algebra == "universal":
        A = UniversalAlgebra()
        extra = {}
    else:
        if args.group is None:
            raise ValidationError("bad-spec", "--algebra dw needs --group")
        G = group_from_spec(args.group)
        l = _default_prime(G, args.prime)
        A = DWAlgebra(G, l)
        extra = {"modulus": l}
    wanted, skipped = applicable_axioms(A.p)
    if skipped:  # named in the summary with the reason
        extra["not_applicable"] = skipped
    levels = _parse_levels(args.levels) if args.levels else None
    report = check_axioms(A, levels=levels, axioms=wanted)
    lines = [
        {"axiom": name, "ok": ok, "witness": witness}
        for name, (ok, witness) in report.items()
    ]
    summary = {
        "algebra": A.name,
        "all_ok": all(ok for ok, _ in report.values()),
        "checked": len(report),
    }
    summary.update(extra)
    return lines + [summary]


def _cmd_normalize(args):
    D = parse_diagram(_text_or_file(args.dsl))
    return [
        {
            "canonical": canonicalize(D).to_json(),
            "invariant": [[g, level_to_json(r), n, u] for g, r, n, u in invariant_of(D)],
        }
    ]


def _cmd_evaluate(args):
    D = parse_diagram(_text_or_file(args.dsl))
    if args.algebra == "universal":
        M = evaluate_diagram(D, UniversalAlgebra())
        entries = [[str(v) for v in row] for row in M.rows]
        return [{"algebra": "universal", "shape": list(M.shape), "entries": entries}]
    if args.group is None:
        raise ValidationError("bad-spec", "--algebra dw needs --group")
    G = group_from_spec(args.group)
    l = _default_prime(G, args.prime)
    M = evaluate_dw(D, G, l)
    return [
        {
            "algebra": "dw",
            "modulus": l,
            "shape": list(M.shape),
            "entries": list(map(list, M.rows)),
        }
    ]


def _cmd_chartab(args):
    G = group_from_spec(args.group)
    l = _default_prime(G, args.prime)
    return [{**character_table_mod(G, l).to_json(), "classification": classification_data(G, l)}]


def _cmd_oracle(args):
    try:
        obj = json.loads(_text_or_file(args.task))
    except json.JSONDecodeError as e:
        raise ValidationError("bad-spec", f"task is not valid JSON: {e}")
    return [run_task(obj)]


# -- plumbing -----------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="arith-tqft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--pretty", action="store_true", help="aligned text instead of JSON lines")
        return p

    p = add("homcount", _cmd_homcount, "hom/epi/extension counts for one group and relator")
    p.add_argument("--group", required=True, help="group spec, e.g. named:heisenberg:3")
    p.add_argument("--n", type=int, default=None, help="number of commutator pairs")
    p.add_argument("--r", type=_level_flag, default=None, help="orientability level (int or inf)")
    p.add_argument("--free", type=int, default=None, help="use a free relator of this rank instead")
    p.add_argument("--verify", action="store_true", help="re-count by brute force, fail on mismatch")
    p.add_argument("--budget", type=int, default=None, help="oracle work budget for --verify")

    p = add("extensions", _cmd_extensions, "count Galois extensions with a given gauge group")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, default=None, help="degree N of the base field over Q_p")
    p.add_argument("--r", type=_level_flag, default=None, help="orientability level of the base")
    p.add_argument("--free", type=int, default=None, help="free base of this rank (e.g. Q_p itself)")

    p = add("axioms", _cmd_axioms, "check the extended Frobenius axioms")
    p.add_argument("--algebra", choices=("universal", "dw"), required=True)
    p.add_argument("--group", default=None, help="gauge group (dw only)")
    p.add_argument("--prime", type=int, default=None, help="working prime (dw only)")
    p.add_argument("--levels", default=None, help="finite levels to test, e.g. 4 or 1..4")

    p = add("normalize", _cmd_normalize, "canonical form and invariant of a diagram")
    p.add_argument("--dsl", required=True, help="diagram text or a file containing it")

    p = add("evaluate", _cmd_evaluate, "evaluate a diagram to a matrix")
    p.add_argument("--dsl", required=True, help="diagram text or a file containing it")
    p.add_argument("--algebra", choices=("universal", "dw"), default="universal")
    p.add_argument("--group", default=None, help="gauge group (dw only)")
    p.add_argument("--prime", type=int, default=None, help="working prime (dw only)")

    p = add("chartab", _cmd_chartab, "modular character table as JSON")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, default=None, help="split prime (default: smallest)")

    p = add("oracle", _cmd_oracle, "run one brute-force enumeration task")
    p.add_argument("--task", required=True, help="task JSON or a file containing it")

    return parser


# argparse setup costs a few milliseconds per call, so one process builds it once
_parser = functools.cache(build_parser)


def _print_pretty(obj, stream):
    width = max((len(str(k)) for k in obj), default=0)
    for key, value in obj.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        print(f"{str(key).ljust(width)}  {value}", file=stream)
    print(file=stream)


def run(argv=None) -> int:
    """Parse argv, run one command, print its output; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
        lines = args.handler(args)
    except ValidationError as e:
        print(json.dumps({"error": e.code, "message": e.message}), file=sys.stderr)
        return 1
    except ComputationError as e:
        print(json.dumps({"error": e.code, "message": e.message}), file=sys.stderr)
        return 2
    try:
        for obj in lines:
            if args.pretty:
                _print_pretty(obj, sys.stdout)
            else:
                print(json.dumps(obj))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): send whatever is still
        # buffered to devnull, as the Python docs advise, so exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
