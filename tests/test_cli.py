"""End-to-end command-line behavior: JSON lines, exit codes, error stream."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arith_tqft.cli import run
from arith_tqft.dw import DWAlgebra
from arith_tqft.errors import ValidationError
from arith_tqft.frobenius import check_axioms
from arith_tqft.pgroup import group_from_spec


def _lines(capsys):
    out, err = capsys.readouterr()
    return [json.loads(line) for line in out.splitlines() if line], err


def _error(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    return json.loads(err)


def test_homcount_with_verification(capsys):
    assert run(["homcount", "--group", "named:cyclic:3", "--n", "1", "--r", "1", "--verify"]) == 0
    lines, _ = _lines(capsys)
    assert len(lines) == 1
    out = lines[0]
    assert out["hom_count"] == 9
    assert out["epi_count"] == 8
    assert out["extensions"] == 4  # a JSON number, as `extensions` prints it
    assert out["verified"] is True
    assert out["primes_used"] == [] and out["seed"] is None  # C_3 is its own dual group: no table
    assert run(["homcount", "--group", "named:heisenberg:3", "--n", "1", "--r", "1", "--verify"]) == 0
    out = _lines(capsys)[0][0]
    assert (out["hom_count"], out["epi_count"], out["verified"]) == (297, 0, True)
    assert out["primes_used"] == [] and out["seed"] is None  # genus 1 reads the class power map: no table
    assert run(["homcount", "--group", "named:heisenberg:3", "--n", "2", "--r", "1"]) == 0
    out = _lines(capsys)[0][0]
    assert out["hom_count"] == 181521
    assert out["primes_used"] == [] and out["seed"] is None  # genus 2 reads the class algebra: no table


def test_homcount_free_rank(capsys):
    assert run(["homcount", "--group", "named:cyclic:3", "--free", "2"]) == 0
    out = _lines(capsys)[0][0]
    assert out["hom_count"] == 9 and out["epi_count"] == 8


def test_extensions_command(capsys):
    assert run(["extensions", "--group", "named:cyclic:3", "--degree", "2", "--r", "1"]) == 0
    assert _lines(capsys)[0][0]["extensions"] == 40
    assert run(["extensions", "--group", "named:cyclic:3", "--free", "2"]) == 0
    assert _lines(capsys)[0][0]["extensions"] == 4


def test_homcount_keeps_its_counts_when_the_automorphism_count_refuses(capsys, tmp_path):
    # Heis(7) and (Z/2)^5 were refused by the automorphism search and now answer:
    # |Aut Heis(7)| = 7^2·|GL_2(7)| = 98,784 and |Aut (Z/2)^5| = |GL_5(2)| = 9,999,360
    for group, n, counts, extensions in (
        ("named:heisenberg:7", 2, (1982268001, 1936166400), 19600),
        ("named:elementary_abelian:2:5", 3, (2**30, 629959680), 63),
    ):
        assert run(["homcount", "--group", group, "--n", str(n), "--r", "1"]) == 0
        out = _lines(capsys)[0][0]
        assert (out["hom_count"], out["epi_count"], out["extensions"]) == counts + (extensions,)
        assert "extensions_refused" not in out
        assert run(["extensions", "--group", group, "--degree", str(2 * n - 2), "--r", "1"]) == 0
        assert _lines(capsys)[0][0]["extensions"] == extensions
    # Heis(3)×(Z/3)^2 has d = 4: |GL_4(3)|·|Φ|^4 ≈ 2·10^9 candidate images, past MAX_AUT_CANDIDATES
    spec = tmp_path / "heis3xe9.json"
    spec.write_text(json.dumps({"kind": "product", "factors": ["named:heisenberg:3", "named:elementary_abelian:3:2"]}))
    group = f"file:{spec}"
    assert run(["homcount", "--group", group, "--n", "2", "--r", "1"]) == 0
    out = _lines(capsys)[0][0]
    assert (out["hom_count"], out["epi_count"], out["extensions"]) == (1190959281, 604661760, None)
    assert out["extensions_refused"]["error"] == "bound-exceeded"
    assert "MAX_AUT_CANDIDATES" in out["extensions_refused"]["message"]
    assert run(["extensions", "--group", group, "--degree", "2", "--r", "1"]) == 1
    assert _error(capsys) == out["extensions_refused"]


def test_extensions_rejects_odd_degree(capsys):
    assert run(["extensions", "--group", "named:cyclic:3", "--degree", "3", "--r", "1"]) == 1
    assert _error(capsys)["error"] == "odd-degree"


def test_axioms_universal(capsys):
    assert run(["axioms", "--algebra", "universal", "--levels", "1..4"]) == 0
    lines, _ = _lines(capsys)
    summary = lines[-1]
    assert summary["all_ok"] is True and summary["checked"] == 13
    assert len(lines) == 14  # one line per axiom plus the summary
    assert {line["axiom"] for line in lines[:-1]} >= {"F1", "F12", "FS"}


def test_axioms_dw(capsys):
    assert run(["axioms", "--algebra", "dw", "--group", "named:cyclic:9"]) == 0
    lines, _ = _lines(capsys)
    assert lines[-1]["all_ok"] is True
    assert lines[-1]["modulus"] == 19
    assert lines[-1]["checked"] == 13 and "not_applicable" not in lines[-1]  # an odd p leaves out no law


_D8 = Path(__file__).resolve().parent.parent / "perfbench" / "groups" / "d8.json"


def test_axioms_dw_on_a_2_group_checks_the_laws_that_read_no_unit(capsys):
    assert run(["axioms", "--algebra", "dw", "--group", f"file:{_D8}"]) == 0
    lines, _ = _lines(capsys)
    summary = lines[-1]
    assert [line["axiom"] for line in lines[:-1]] == ["F1", "F2", "F3", "F4", "F5", "FS", "F11"]
    assert summary["all_ok"] is True and summary["checked"] == 7
    assert sorted(summary["not_applicable"]) == sorted(["F6", "F7", "F8", "F9", "F10", "F12"])
    assert all("odd p" in reason for reason in summary["not_applicable"].values())
    # asked for explicitly, a unit law on a 2-group is still refused, typed
    with pytest.raises(ValidationError) as e:
        check_axioms(DWAlgebra(group_from_spec(f"file:{_D8}"), 17), axioms=("F1", "F6"))
    assert e.value.code == "not-a-unit"


def test_the_package_runs_as_a_module_from_a_checkout():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "arith_tqft", "homcount", "--group", "named:cyclic:3", "--n", "1", "--r", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["hom_count"] == 9


def test_axioms_dw_needs_group(capsys):
    assert run(["axioms", "--algebra", "dw"]) == 1
    assert _error(capsys)["error"] == "bad-spec"


def test_normalize_inline_and_from_file(capsys, tmp_path):
    dsl = "cap; tor(2); tw(4 mod 3^2)"
    assert run(["normalize", "--dsl", dsl]) == 0
    out = _lines(capsys)[0][0]
    assert out["invariant"] == [[1, 2, 0, 1]]
    assert len(out["canonical"]["components"]) == 1
    path = tmp_path / "diagram.dsl"
    path.write_text(dsl)
    assert run(["normalize", "--dsl", str(path)]) == 0
    assert _lines(capsys)[0][0]["invariant"] == [[1, 2, 0, 1]]


def test_evaluate_universal_genus_three(capsys):
    words = "cap; tor(inf); tor(inf); tor(inf); cup"
    assert run(["evaluate", "--dsl", words, "--algebra", "universal"]) == 0
    out = _lines(capsys)[0][0]
    assert out["shape"] == [1, 1]
    assert out["entries"] == [["2h^2 + 8t"]]


def test_evaluate_dw(capsys):
    assert run(["evaluate", "--dsl", "d; m", "--algebra", "dw", "--group", "named:cyclic:9"]) == 0
    out = _lines(capsys)[0][0]
    assert out["modulus"] == 19 and out["shape"] == [9, 9]
    assert all(isinstance(v, int) for row in out["entries"] for v in row)


def test_evaluate_dw_needs_group(capsys):
    assert run(["evaluate", "--dsl", "id", "--algebra", "dw"]) == 1
    assert _error(capsys)["error"] == "bad-spec"


def test_evaluate_bad_dsl(capsys):
    assert run(["evaluate", "--dsl", "zzz(", "--algebra", "universal"]) == 1
    assert _error(capsys)["error"] == "syntax-error"


def test_chartab_command(capsys):
    assert run(["chartab", "--group", "named:cyclic:3"]) == 0
    out = _lines(capsys)[0][0]
    assert out["l"] == 7 and out["degrees"] == [1, 1, 1]
    assert set(out) >= {"l", "omega", "degrees", "rows", "seed", "classification"}
    # C₃ mod 7: λ_χ = 1/9, tor(1) = tor(inf) = 9, and x ↦ x² swaps the two nontrivial characters
    assert out["classification"] == {"lambda": [4, 4, 4], "tor": {"1": [2, 2, 2], "inf": [2, 2, 2]}, "tw": {"2": [0, 2, 1]}}
    # GL₂(3) is no p-group, so it has a table but no DW algebra to classify
    assert run(["chartab", "--group", "named:gl2:3"]) == 0
    out = _lines(capsys)[0][0]
    assert out["degrees"] == [1, 1, 2, 2, 2, 3, 3, 4] and out["classification"] is None


def test_oracle_command(capsys):
    task = json.dumps({"group": "named:gl2:3", "spec": {"n": 1, "r": 1}, "p": 3, "p_image": True})
    assert run(["oracle", "--task", task]) == 0
    out = _lines(capsys)[0][0]
    assert out["count"] == 33 and out["scanned"] == 2304


def test_oracle_rejects_bad_json(capsys):
    assert run(["oracle", "--task", "{not json"]) == 1
    assert _error(capsys)["error"] == "bad-spec"


def test_exit_code_two_on_computation_error(capsys):
    wide = ", ".join(["id"] * 8)
    code = run(["evaluate", "--dsl", wide, "--algebra", "dw", "--group", "named:cyclic:3"])
    assert code == 2
    assert _error(capsys)["error"] == "dimension-guard"


def test_unknown_command_is_a_validation_error(capsys):
    assert run(["nosuchcmd"]) == 1
    assert _error(capsys)["error"] == "bad-spec"


def test_budget_error_surfaces_with_exit_one(capsys):
    task = json.dumps({"group": "named:heisenberg:3", "spec": {"n": 1, "r": 1}, "budget": 10})
    assert run(["oracle", "--task", task]) == 1
    err = _error(capsys)
    assert err["error"] == "budget-exceeded" and "729" in err["message"]


_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))
from arith_tqft.cli import run
sys.exit(run(sys.argv[1:]))
"""
_PRODUCT = {"kind": "product", "factors": ["named:heisenberg:5", "named:elementary_abelian:5:2"]}


def _run_capped(argv):
    """The CLI run as a fresh process under `_CAPPED`'s address-space limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", _CAPPED, *argv], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv",
    [
        # (Z/3)^6 has k = 729 classes: its structure constants hold k^3 entries, so it has no
        # character table and no splitting, and an associativity side of the class-basis
        # precheck is a k^4-entry matrix
        ["evaluate", "--algebra", "dw", "--group", "named:elementary_abelian:3:6", "--dsl", "cap; cup"],
        # Heis(5)×(Z/5)^2 (order 3,125) has k = 725 classes: its structure constants hold k^3
        # entries, which the class algebra of a genus-2 count reads
        ["homcount", "--group", "file:{product}", "--n", "2", "--r", "1"],
    ],
    ids=["evaluate-e729", "homcount-heis5xe25"],
)
def test_dense_arrays_past_the_limit_are_refused_typed(argv, tmp_path):
    product = tmp_path / "product.json"
    product.write_text(json.dumps(_PRODUCT))
    done = _run_capped([a.format(product=product) for a in argv])
    assert done.returncode == 1, done.stderr
    err = json.loads(done.stderr)
    assert err["error"] == "bound-exceeded" and "MAX_DENSE_ENTRIES" in err["message"]


_HEIS3_SQUARED_C3 = {"kind": "product", "factors": ["named:heisenberg:3", "named:heisenberg:3", "named:cyclic:3"]}


@pytest.mark.parametrize(
    "spec, argv, want",
    [
        # genus 1 is |Γ|·#{K : K^c = K}; c = 1 − p^r ≡ 1 mod exp Γ here, so every class counts,
        # and d(Γ) = 4 and 5 generators exceed the 2 letters, so there is no epimorphism
        (_PRODUCT, ["homcount", "--n", "1", "--r", "1"], {"hom_count": 3125 * 725, "epi_count": 0, "extensions": 0}),
        (_HEIS3_SQUARED_C3, ["homcount", "--n", "1", "--r", "1"], {"hom_count": 2187 * 363, "epi_count": 0, "extensions": 0}),
        (_HEIS3_SQUARED_C3, ["extensions", "--free", "4"], {"extensions": 0, "epi_count": 0, "spec": "free(4)"}),
    ],
    ids=["homcount-heis5xe25", "homcount-heis3sqxc3", "extensions-heis3sqxc3"],
)
def test_counts_that_read_no_table_answer_under_the_cap(spec, argv, want, tmp_path):
    # no character table, structure constants or Hall walk: each used to crash or be refused
    group = tmp_path / "group.json"
    group.write_text(json.dumps(spec))
    done = _run_capped([argv[0], "--group", f"file:{group}", *argv[1:]])
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out.pop("primes_used", []) == [] and out.pop("seed") is None and out == want


@pytest.mark.parametrize(
    "group, l, order",
    [("named:cyclic:125", 251, 125), ("named:elementary_abelian:3:5", 487, 243)],
    ids=["C125", "e243"],
)
def test_split_algebras_past_k4_answer_closed_surfaces(group, l, order):
    # k⁴ passes MAX_DENSE_ENTRIES on both, but the splitting reads only the
    # table, so the sphere Σ_χ λ_χ = k/|Γ|² = 1/|Γ| answers
    done = _run_capped(["evaluate", "--algebra", "dw", "--group", group, "--dsl", "cap; cup"])
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["modulus"] == l and out["entries"] == [[pow(order, -1, l)]]


def test_chartab_prints_the_classification_past_k4():
    done = _run_capped(["chartab", "--group", "named:cyclic:125"])
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)["classification"]
    assert data["lambda"] == [pow(125 * 125, -1, 251)] * 125
    assert set(data["tor"]) == {"1", "2", "3", "inf"} and len(data["tw"]["2"]) == 125


def test_closed_stdout_exits_cleanly(monkeypatch, tmp_path):
    class ClosedPipe(io.StringIO):
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as backing:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(backing.fileno()))
        assert run(["homcount", "--group", "named:cyclic:3", "--n", "1", "--r", "1"]) == 0


def test_pretty_output_is_not_json(capsys):
    assert run(["homcount", "--group", "named:cyclic:3", "--n", "1", "--r", "1", "--pretty"]) == 0
    out, _ = capsys.readouterr()
    assert "hom_count" in out and "{" not in out


_GL2_P_IMAGE = {"group": "named:gl2:3", "spec": {"n": 1, "r": 1}, "p_image": True}
_C3_TASK = {"group": "named:cyclic:3", "spec": {"n": 1, "r": 1}}


@pytest.mark.parametrize(
    "command, payload, said",
    [
        ("group", None, "cannot read group file"),  # a file: path that does not exist
        ("group", "{bad", "is not valid JSON"),
        ("group", {"kind": "perm", "degree": 3}, "needs 'gens'"),
        ("group", {"kind": "perm", "degree": "x", "gens": [[1, 2, 0]]}, "perm degree must be an integer"),
        ("group", {"kind": "named", "name": "cyclic", "params": ["x"]}, "parameter must be an integer"),
        ("group", {"kind": "product", "factors": "nn"}, "list of at least two factors"),
        ("task", [], "a task is a JSON object"),
        ("task", "abc", "a task is a JSON object"),
        ("task", None, "a task is a JSON object"),
        ("task", {"group": "named:cyclic:3", "spec": {"n": 1}}, "a spec is"),
        ("task", {"group": "named:cyclic:3", "spec": {"n": "x", "r": 1}}, "n must be an integer"),
        ("task", {"group": "named:cyclic:3", "spec": {"free": "x"}}, "free must be an integer"),
        ("task", {**_C3_TASK, "budget": "x"}, "budget must be an integer"),
        ("task", {**_C3_TASK, "boundary": {"x": 0}}, "boundary index must be an integer"),
        ("task", {**_C3_TASK, "boundary": {"0": "x"}}, "boundary element must be an integer"),
        ("task", {**_C3_TASK, "boundary": [0]}, "boundary must be an object"),
        ("task", {"group": "named:cyclic:3", "spec": {"n": 1.5, "r": 1}}, "n must be an integer"),
        ("task", {**_GL2_P_IMAGE, "p": "x"}, "p must be an integer"),
        ("task", {**_GL2_P_IMAGE, "p": 0}, "p=0 is not a prime"),
        ("task", {**_GL2_P_IMAGE, "p": 4}, "p=4 is not a prime"),
        ("task", {**_C3_TASK, "p": "x"}, "p must be an integer"),
        ("task", {**_C3_TASK, "epis": "false"}, "epis must be true or false"),
        ("task", {**_C3_TASK, "epis": 1}, "epis must be true or false"),
        ("task", {**_C3_TASK, "epis": None}, "epis must be true or false"),
        ("task", {**_GL2_P_IMAGE, "p_image": "no"}, "p_image must be true or false"),
        ("task", {**_GL2_P_IMAGE, "p_image": 0}, "p_image must be true or false"),
    ],
)
def test_malformed_groups_and_tasks_exit_one_with_a_typed_error(command, payload, said, capsys, tmp_path):
    # in process through cli.run: no traceback, one JSON error naming the field
    if command == "group":
        path = tmp_path / "group.json"
        if payload is not None:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = ["homcount", "--group", f"file:{path}", "--n", "1", "--r", "1"]
    else:
        argv = ["oracle", "--task", json.dumps(payload)]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "bad-spec" and said in error["message"], err
