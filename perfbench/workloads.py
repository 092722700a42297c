"""The four workloads: how each deals its seeded ops, runs one, and checks the answer.

A workload deals its ops in passes.  Every pass holds the same cells (a cell
fixes the group, the shape and the cost class of an op); the seed picks the
free parameters inside each cell and the order of the pass.  So two seeds run
the same mix of work on different inputs.

An op's outcome is either an answer, which `check` compares with a route that
shares no code with the timed call, or a typed engine error, whose code the
runner looks up in `known_failures.json`.

Engine functions are imported where they are called, not at module level, so
that a traced run calls the wrappers `tracing.Tracer.install` put in place.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from expected import GROUPS, Reference, epi_closed_form, gl2_p_image_count, hom_closed_form, scan_loops


class WrongAnswer(Exception):
    """An answer disagreed with its reference; the run stops."""


class Refused(Exception):
    """The command reported a typed error (its code is in `code`)."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


@dataclass(frozen=True)
class Op:
    cell: str  # the cell label, e.g. "C27 n6-9"
    group: str  # GROUPS key, for the known-failure lookup
    payload: tuple  # everything the op depends on; hashed into the op-list digest


def _engine_level(r):
    from arith_tqft.units import INF

    return INF if r == "inf" else r


def run_cli(argv):
    """cli.run in-process with stdout/stderr captured; returns (exit code, stdout, stderr)."""
    from arith_tqft import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_answer(raw):
    """The last JSON line of a successful command, or Refused with the error code."""
    rc, out, err = raw
    if rc != 0:
        raise Refused(json.loads(err.strip().splitlines()[-1])["error"])
    return json.loads(out.strip().splitlines()[-1])


def _mismatch(what, got, want):
    if got != want:
        raise WrongAnswer(f"{what}: got {got}, reference {want}")


LEVELS = (1, 2, "inf")


# -- count ------------------------------------------------------------------------------

# (group, n bands): one op per band and pass, the seed picks n inside the band
# and r.  Every pass holds the same bands, so it costs about the same whatever
# the seed: the cheap groups run every n from 1 to 14 twice, Heis3 and XSP3
# every other n, the costly groups one n each.  No band straddles the n at
# which a known failure starts.
_EVERY_N = tuple((n, n) for n in range(1, 15)) * 2
COUNT_CELLS = (
    ("C3", _EVERY_N),
    ("D8", _EVERY_N),
    ("C9", _EVERY_N),
    ("E9", _EVERY_N),
    ("Heis3", tuple((n, n) for n in range(1, 15, 2))),
    ("XSP3", tuple((n, n) for n in range(2, 15, 2))),
    ("C27", ((6, 6),)),
    ("C25", ((13, 13),)),
    ("C3xC9", ((1, 1), (2, 14))),
    ("Heis5", ((1, 1),)),
    ("E25", ((1, 14),)),
    ("E27", ((1, 14),)),
)


class Count:
    """Cold `arith-tqft homcount` queries through cli.run; each rebuilds its group."""

    name = "count"
    probe = "interpreter"

    def setup(self):
        self.ref = Reference()

    def deal(self, rng):
        ops = []
        for key, bands in COUNT_CELLS:
            for lo, hi in bands:
                n, r = rng.randint(lo, hi), rng.choice(LEVELS)
                ops.append(Op(f"{key} n{lo}-{hi}", key, ("homcount", key, n, r)))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        _, key, n, r = op.payload
        return run_cli(["homcount", "--group", GROUPS[key].spec, "--n", str(n), "--r", str(r)])

    def answer(self, op, raw):
        return cli_answer(raw)

    def check(self, op, out):
        _, key, n, r = op.payload
        g = GROUPS[key]
        hom, epi = self.ref.hom(g, n, r), self.ref.epi(g, n, r)
        ext = self.ref.extensions(g, epi)
        unchecked = []
        for field, want, got in (
            ("hom", hom, out["hom_count"]),
            ("epi", epi, out["epi_count"]),
            ("extensions", ext, Fraction(out["extensions"])),
        ):
            if want is None:
                unchecked.append(field)
            else:
                _mismatch(f"{op.cell} n={n} r={r} {field}", got, want)
        return unchecked


# -- relations --------------------------------------------------------------------------

_UNITS = (4, 7, 10, 13, 16, 19, 22, 25)  # residues ≡ 1 mod 3, levels 1 and 2 at precision 3


def _unit(rng, min_level=1) -> str:
    pool = [a for a in _UNITS if min_level == 1 or (a - 1) % 9 == 0]
    return f"{rng.choice(pool)} mod 3^3"


def _relation_core(rule: str, rng):
    """(core diagram text, keyword arguments) for one seeded instance of `rule`."""
    lv = lambda: rng.choice(("1", "2", "3", "inf"))
    pick = rng.choice
    if rule == "R1":
        return pick(("cap, id; m", "id, cap; m")), ()
    if rule == "R2":
        return pick(("d; id, cup", "d; cup, id")), ()
    if rule == "R3":
        return pick(("m, id; m", "id, m; m")), ()
    if rule == "R4":
        return pick(("d; d, id", "d; id, d")), ()
    if rule == "R5":
        return pick(("m; d", "id, d; m, id", "d, id; id, m")), ()
    if rule == "R6":
        return f"cap; tw({_unit(rng)})", ()
    if rule == "R7":
        return f"tw({_unit(rng)}); cup", ()
    if rule == "R8":
        a = _unit(rng)
        return f"tw({a}), tw({a}); m", ()
    if rule == "R9":
        return f"tw({_unit(rng)}); d", ()
    if rule == "R10":
        return f"tor({pick(('1', '2', 'inf'))})", (("p", 3), ("precision", 3))
    if rule == "R11":
        return f"tor({lv()}); tor({lv()})", ()
    if rule == "R12":
        r = pick((1, 2))
        return pick((f"tor({r}); tw({_unit(rng, r)})", f"tw({_unit(rng, r)}); tor({r})")), ()
    if rule == "RS1":
        return "swap; swap", ()
    if rule == "RS2":
        return "swap; m", ()
    if rule == "RS3":
        return "d; swap", ()
    if rule == "RS4":
        return f"tw({_unit(rng)}), tw({_unit(rng)}); swap", ()
    if rule == "RS5":
        return "swap, id; id, swap; swap, id", ()
    raise ValueError(rule)


RULES = (
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12",
    "RS1", "RS2", "RS3", "RS4", "RS5",
)
MAX_CONTEXT_WIDTH = 6  # the universal algebra evaluates up to 2^6 dimensions
MAX_PAD = 4


def _padded(text: str, left: int, right: int) -> str:
    pad_l, pad_r = "id, " * left, ", id" * right
    return "; ".join(f"{pad_l}{row.strip()}{pad_r}" for row in text.split(";"))


def _max_width(D) -> int:
    widths = [D.in_arity]
    for sl in D.slices:
        widths.append(sum(t.arity[1] for t in sl))
    return max(widths)


class Relations:
    """Seeded R1–R12/RS1–RS5 instances in identity context, both sides in UniversalAlgebra."""

    name = "relations"
    probe = "interpreter"

    def setup(self):
        from arith_tqft.frobenius import UniversalAlgebra, ensure_prechecked

        self.algebra = UniversalAlgebra()
        ensure_prechecked(self.algebra)
        self._room: dict = {}

    def _room_for(self, rule, text, kwargs):
        if (rule, text) not in self._room:
            from arith_tqft.cobordism import apply_relation, parse_diagram

            core = parse_diagram(text)
            rewritten = apply_relation(core, rule, (0, 0), **dict(kwargs))
            self._room[rule, text] = MAX_CONTEXT_WIDTH - max(_max_width(core), _max_width(rewritten))
        return self._room[rule, text]

    def deal(self, rng):
        ops = []
        for rule in RULES:
            text, kwargs = _relation_core(rule, rng)
            for pad in range(min(self._room_for(rule, text, kwargs), MAX_PAD) + 1):
                left = rng.randint(max(0, pad - 2), min(pad, 2))
                ops.append(Op(f"{rule} pad{pad}", "universal", ("relation", rule, text, left, pad - left, kwargs)))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        from arith_tqft.cobordism import apply_relation, canonicalize, parse_diagram
        from arith_tqft.frobenius import evaluate_diagram

        _, rule, text, left, right, kwargs = op.payload
        D = parse_diagram(_padded(text, left, right))
        E = apply_relation(D, rule, (0, left), **dict(kwargs))
        return (
            canonicalize(D),
            canonicalize(E),
            evaluate_diagram(D, self.algebra).rows,
            evaluate_diagram(E, self.algebra).rows,
        )

    def answer(self, op, raw):
        return raw

    def check(self, op, out):
        cf_d, cf_e, val_d, val_e = out
        _mismatch(f"{op.cell} canonical form", cf_e, cf_d)
        _mismatch(f"{op.cell} value", val_e, val_d)
        return []


# -- gauge ------------------------------------------------------------------------------

GAUGE_GROUPS = ("C3", "C9", "Heis3", "Heis5")
GENERA = tuple(range(1, 7)) * 2
HANDLE_LEVELS = (1, 2, 3, "inf")


def _full_slice(rng, width: int, lead: str) -> str:
    """`lead`, then id, tor(r), swap and m-d pairs at random: `width` strands in and out."""
    items, left = [lead], width - 2
    while left:
        choices = ["id", f"tor({rng.choice(('1', '2', 'inf'))})"]
        if left >= 2:
            choices.append("swap")
        if left >= 3:
            choices += ["m, d", "d, m"]
        item = rng.choice(choices)
        items.append(item)
        left -= {"swap": 2, "m, d": 3, "d, m": 3}.get(item, 1)
    return ", ".join(items)


def _open_diagram(rng, width: int) -> str:
    """A seeded diagram on `width` strands whose costly slice always has `width` strands."""
    level = lambda: rng.choice(("1", "2", "inf"))
    if width == 1:
        return f"tor({level()}); tor({level()})"
    if width == 2:
        return "m; d; " + rng.choice(("swap", f"tor({level()}), tor({level()})", f"id, tor({level()})"))
    # one slice at full width, then m on its leading swap: the twin's RS2 rewrite
    return _full_slice(rng, width, lead="swap") + "; m" + ", id" * (width - 2)


class Gauge:
    """Dijkgraaf–Witten sessions: algebras built and prechecked once, then seeded diagrams."""

    name = "gauge"
    # its time goes to small numpy calls, which drift with the machine unlike pure Python
    probe = "numpy"

    def setup(self):
        import math

        from arith_tqft.chartab import split_primes
        from arith_tqft.dw import DWAlgebra
        from arith_tqft.frobenius import ensure_prechecked
        from arith_tqft.pgroup import group_from_spec

        self.ref = Reference()
        self.algebras, self.guard = {}, {}
        for key in GAUGE_GROUPS:
            G = group_from_spec(GROUPS[key].spec)
            A = DWAlgebra(G, split_primes(G, count=1)[0])
            ensure_prechecked(A)
            self.algebras[key] = A
            self.guard[key] = int(math.log(A.max_dim) / math.log(A.dim) + 1e-9)

    def deal(self, rng):
        from arith_tqft.cobordism import parse_diagram

        ops = []
        for key in GAUGE_GROUPS:
            for genus in GENERA:
                # g handles: one d; m (level inf) at a seeded place, the rest tor(r)
                levels = [rng.choice(HANDLE_LEVELS) for _ in range(genus - 1)]
                handles = [f"tor({r})" for r in levels]
                handles.insert(rng.randrange(genus), "d; m")
                text = "cap; " + "; ".join(handles) + "; cup"
                r = min((r for r in levels if r != "inf"), default="inf")
                ops.append(Op(f"{key} genus{genus}", key, ("closed", key, text, genus, r)))
            for width in range(1, self.guard[key] + 2):
                text = _open_diagram(rng, width)
                ops.append(Op(f"{key} width{width}", key, ("open", key, text)))
        rng.shuffle(ops)
        self._parsed = {op.payload[2]: parse_diagram(op.payload[2]) for op in ops}
        return ops

    def execute(self, op):
        from arith_tqft.frobenius import evaluate_diagram

        return evaluate_diagram(self._parsed[op.payload[2]], self.algebras[op.payload[1]])

    def answer(self, op, raw):
        return raw

    def check(self, op, out):
        from arith_tqft.errors import ComputationError
        from arith_tqft.frobenius import evaluate_diagram

        kind, key, text = op.payload[:3]
        A = self.algebras[key]
        if kind == "closed":
            genus, r = op.payload[3:]
            hom = self.ref.hom(GROUPS[key], genus, r)
            if hom is None:
                return ["closed"]
            want = hom * pow(GROUPS[key].order, -1, A.l) % A.l
            _mismatch(f"{op.cell} {text}", out.rows[0][0], want)
            return []
        try:
            want = evaluate_diagram(self._twin(self._parsed[text]), A)
        except ComputationError:
            return ["open"]
        _mismatch(f"{op.cell} {text} against its rewritten twin", out.rows, want.rows)
        return []

    @staticmethod
    def _twin(D):
        """D rewritten once: swap; m → m (RS2) on the leading pair, or R11 on a lone strand."""
        from arith_tqft.cobordism import apply_relation

        if D.in_arity == 1:
            return apply_relation(D, "R11", (0, 0))
        if D.in_arity == 2:
            return apply_relation(D, "RS3", (1, 0))  # d → d; swap
        return apply_relation(D, "RS2", (0, 0))


# -- verify -----------------------------------------------------------------------------

VERIFY_GROUPS = (
    "C3", "C9", "E9", "D8", "Heis3", "XSP3", "C27", "C3xC9", "E27", "C25", "E25", "Heis5",
)
SCAN_LOOPS = {"solutions": 600_000, "epis": 250_000}  # per-op caps on the predicted scan
DECORATED_GROUPS = ("Heis3", "C27", "Heis5")


class Verify:
    """Cold `arith-tqft oracle --task` scans through cli.run, plus decorated bundle tables."""

    name = "verify"
    probe = "interpreter"

    def setup(self):
        self.cells = [
            (key, n, mode)
            for key in VERIFY_GROUPS
            for n in (1, 2)
            for mode in ("solutions", "epis")
            if scan_loops(GROUPS[key], n) <= SCAN_LOOPS[mode]
        ]
        self.cells.append(("GL2_3", 1, "p_image"))
        self._formula_groups: dict = {}
        self._exact: dict = {}
        self._tokens: dict = {}

    def deal(self, rng):
        ops = []
        for key, n, mode in self.cells:
            r = rng.choice(LEVELS)
            ops.append(Op(f"{key} n{n} {mode}", key, ("scan", key, n, r, mode)))
        for key in DECORATED_GROUPS:
            k = GROUPS[key].classes
            c = lambda: rng.randrange(k)
            ops.append(Op(f"{key} pants m", key, ("decorated", key, "m", (c(), c()), c())))
            ops.append(Op(f"{key} pants d", key, ("decorated", key, "d", c(), (c(), c()))))
            ops.append(Op(f"{key} handle", key, ("decorated", key, f"tor({rng.choice(LEVELS)})", c(), c())))
        rng.shuffle(ops)
        for op in ops:
            if op.payload[0] == "decorated":
                self._token(op.payload[2])
        return ops

    def _token(self, text):
        """The generator token written as `text`, parsed once per run."""
        if text not in self._tokens:
            from arith_tqft.cobordism import parse_diagram

            self._tokens[text] = parse_diagram(text).slices[0][0]
        return self._tokens[text]

    def execute(self, op):
        if op.payload[0] == "scan":
            _, key, n, r, mode = op.payload
            task = {"group": GROUPS[key].spec, "spec": {"n": n, "r": r}}
            if mode == "epis":
                task["epis"] = True
            if mode == "p_image":
                task.update(p=GROUPS[key].p, p_image=True)
            return run_cli(["oracle", "--task", json.dumps(task)])
        from arith_tqft.oracle import decorated_generator_count
        from arith_tqft.pgroup import group_from_spec

        _, key, token, p1, p2 = op.payload
        return decorated_generator_count(group_from_spec(GROUPS[key].spec), self._token(token), p1, p2)

    def answer(self, op, raw):
        return cli_answer(raw)["count"] if op.payload[0] == "scan" else raw

    def _formula(self, key, n, r, mode):
        """The character-formula count on one shared group per run (None if it cannot tell)."""
        from arith_tqft.dw import RelatorSpec, epi_count, hom_count
        from arith_tqft.errors import EngineError
        from arith_tqft.pgroup import group_from_spec

        if key not in self._formula_groups:
            self._formula_groups[key] = group_from_spec(GROUPS[key].spec)
        fn = epi_count if mode == "epis" else hom_count
        try:
            return fn(RelatorSpec(n, _engine_level(r)), self._formula_groups[key])
        except EngineError:
            return None

    def check(self, op, out):
        if op.payload[0] == "scan":
            _, key, n, r, mode = op.payload
            g = GROUPS[key]
            if mode == "p_image":
                want = gl2_p_image_count(n, r)
            else:
                want = (epi_closed_form if mode == "epis" else hom_closed_form)(g, n, r)
                if want is None:
                    want = self._formula(key, n, r, mode)
            if want is None:
                return [mode]
            _mismatch(f"{op.cell} r={r}", out, want)
            return []
        from arith_tqft.dw import dw_generator_map_exact
        from arith_tqft.pgroup import group_from_spec

        _, key, token, p1, p2 = op.payload
        if (key, token) not in self._exact:
            G = self._formula_groups.setdefault(key, group_from_spec(GROUPS[key].spec))
            self._exact[key, token] = dw_generator_map_exact(G, self._token(token))
        k, rows = GROUPS[key].classes, self._exact[key, token].rows
        if token == "m":
            want = rows[p2][p1[0] * k + p1[1]]
        elif token == "d":
            want = rows[p2[0] * k + p2[1]][p1]
        else:
            want = rows[p2][p1]
        _mismatch(f"{op.cell} {token} {p1}->{p2}", out, want)
        return []


WORKLOADS = {w.name: w for w in (Count, Relations, Gauge, Verify)}
