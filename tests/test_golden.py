"""Golden reports: `pkl find --format json --seed 0` must stay byte-identical.

Covers every registry instance at every 1 <= p < n, plus twelve instances of
the two 8-dimensional SnN families at p = 2.  Refactors and speedups of the
exact core must reproduce these bytes; a change of any verdict, closed basis,
certificate or statistic shows up here.  Every golden report must also pass
`verify_report`, and tampered witness families must fail it; a second pass
re-checks them with the volume pairing, the Gram matrix and d computed by the
wedge-based references of `test_properties.py` instead of the cached tables.

The same twelve SnN instances also keep `pkl obstruct --p 2 --beta=...
--format json` outputs for the paper's obstruction forms beta; each must pass
`pkl verify`, and a changed beta coefficient or stored component must not.

After an intended change of the reports, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py --regen`.
"""

import contextlib
import copy
import io
import itertools
import json
import os
import sys
from fractions import Fraction

import pytest

from pklie import pkahler, positivity
from pklie.catalog import named_example, registry
from pklie.cli import main
from pklie.cxstruct import ComplexStructureSpec
from pklie.exterior import (
    MultiIndex,
    bidegree_component,
    form_from_json,
    form_to_json,
    form_to_literal,
    monomial,
)
from pklie.pkahler import verify_report
from pklie.positivity import gram_basis
from test_properties import _antiderivation_reference, _wedge_pairing_reference

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SNN8_NAMES = [
    "snn8f1:0,0,0,1",
    "snn8f1:0,0,1,0",
    "snn8f1:0,0,1,1:-1",
    "snn8f1:0,1,0,1",
    "snn8f1:0,1,1,1/2",
    "snn8f1:1,0,0,1",
    "snn8f1:1,1,1,1",
    "snn8f2:1,1,0,0,0",
    "snn8f2:1,0,1,1,1",
    "snn8f2:1,0,0,0,2",
    "snn8f2:1,0,0,1,-1",
    "snn8f2:0,1,0,1,0",
]


def _cases() -> list[tuple[str, int]]:
    out = []
    for name in registry():
        n = named_example(name).n
        out.extend((name, p) for p in range(1, n))
    out.extend((name, 2) for name in SNN8_NAMES)
    return out


_SAFE = str.maketrans(":/", "_~")  # file-name safe catalog names


def _path(name: str, p: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{name.translate(_SAFE)}.p{p}.json")


def _obstruct_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name.translate(_SAFE)}.obstruct.p2.json")


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _find_json(name: str, p: int) -> str:
    return _cli_stdout(
        ["find", "--catalog", name, "--p", str(p), "--format", "json", "--seed", "0"]
    )


def _snn8_beta(name: str) -> str:
    """The paper's obstruction form for p = 2, as a literal.

    Family 1 (eps, nu, a, b): beta = b a^{14,1b} - a a^{13,2b}.
    Family 2 (eps, mu, nu, a, b): beta = a^{14,1b} + (1 - mu) a^{12,3b}.
    """
    family, params = name.split(":")[:2]
    params = [Fraction(x) for x in params.split(",")]
    if family == "snn8f1":
        a, b = params[2], params[3]
        beta = monomial(4, (1, 4), (1,), b) - monomial(4, (1, 3), (2,), a)
    else:
        beta = monomial(4, (1, 4), (1,)) + monomial(4, (1, 2), (3,), 1 - params[1])
    return form_to_literal(beta)


def _obstruct_json(name: str) -> str:
    return _cli_stdout(
        ["obstruct", "--catalog", name, "--p", "2", f"--beta={_snn8_beta(name)}", "--format", "json"]
    )


@pytest.mark.parametrize("name,p", _cases())
def test_find_report_matches_golden(name, p):
    with open(_path(name, p)) as fh:
        expected = fh.read()
    assert _find_json(name, p) == expected


def test_every_golden_file_is_a_case():
    expected = {os.path.basename(_path(name, p)) for name, p in _cases()}
    expected |= {os.path.basename(_obstruct_path(name)) for name in SNN8_NAMES}
    assert set(os.listdir(GOLDEN_DIR)) == expected


@pytest.mark.parametrize("name", SNN8_NAMES)
def test_obstruct_report_matches_golden(name):
    with open(_obstruct_path(name)) as fh:
        expected = fh.read()
    assert _obstruct_json(name) == expected


def _verify_file(path: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", path])
    return code, out.getvalue()


@pytest.mark.parametrize("name", SNN8_NAMES)
def test_obstruct_golden_passes_verification(name):
    assert _verify_file(_obstruct_path(name)) == (0, "certificate verified (exact arithmetic)\n")


@pytest.mark.parametrize("name", SNN8_NAMES)
def test_tampered_obstruct_golden_fails_verification(name, tmp_path):
    with open(_obstruct_path(name)) as fh:
        report = json.load(fh)
    # the doubled beta term must reach the (2,2) part of d beta, or the edit
    # leaves a valid obstruction.  Family 1: b a^{14,1b} adds b^2 and
    # -a a^{13,2b} adds a^2, and the last term is a^{14,1b} unless b = 0.
    # Family 2: a^{14,1b} adds -mu and (1-mu) a^{12,3b} adds eps (1-mu), and
    # the first term is a^{12,3b} unless mu = 1.
    beta_term = -1 if name.startswith("snn8f1") else 0
    for part, i in (("beta", beta_term), ("component", 0)):
        edit = copy.deepcopy(report)
        term = edit["certificate"][part][i]
        term["re"] = str(2 * Fraction(term["re"]))
        path = tmp_path / f"{part}.json"
        path.write_text(json.dumps(edit))
        code, out = _verify_file(str(path))
        assert code == 1 and out.startswith("FAIL: "), (part, out)


def _report(name: str, p: int) -> dict:
    with open(_path(name, p)) as fh:
        return json.load(fh)["report"]


@pytest.mark.parametrize("name,p", _cases())
def test_golden_report_passes_verification(name, p):
    assert verify_report(named_example(name), _report(name, p)) == []


def _wedge_gram_reference(omega):
    n = omega.n
    basis = gram_basis(n, n - omega.bidegree()[0])
    mono = [monomial(n, idx) for idx in basis]
    return basis, [[_wedge_pairing_reference(omega, x, y) for y in mono] for x in mono]


def _d_reference(struct, f):
    return _antiderivation_reference(f, struct.equations)


def _d_pp_block_reference(struct, p):
    n = struct.n
    combos = list(itertools.combinations(range(1, n + 1), p))
    return {
        MultiIndex(a, b): bidegree_component(_d_reference(struct, monomial(n, a, b)), p + 1, p)
        for a in combos
        for b in combos
    }


@pytest.mark.parametrize("name,p", _cases())
def test_golden_report_passes_verification_on_wedge_references(name, p, monkeypatch):
    # find_pkahler and verify_report read the same pairing and d-block tables,
    # so a wrong table entry could pass both; here verify reads none of them
    monkeypatch.setattr(positivity, "pairing_coefficient", _wedge_pairing_reference)
    monkeypatch.setattr(positivity, "gram_matrix", _wedge_gram_reference)
    monkeypatch.setattr(pkahler, "gram_matrix", _wedge_gram_reference)
    monkeypatch.setattr(ComplexStructureSpec, "d", _d_reference)
    monkeypatch.setattr(ComplexStructureSpec, "d_pp_block", _d_pp_block_reference)
    assert verify_report(named_example(name), _report(name, p)) == []


def _witness_family_cases() -> list[tuple[str, int]]:
    return [
        (name, p)
        for name, p in _cases()
        if _report(name, p).get("refutation", {}).get("kind") == "witness_family"
    ]


def _doubled(report: dict, i: int) -> dict:
    out = copy.deepcopy(report)
    out["refutation"]["farkas"][i] = str(2 * Fraction(out["refutation"]["farkas"][i]))
    return out


@pytest.mark.parametrize("name,p", _witness_family_cases())
def test_tampered_witness_family_fails_verification(name, p):
    struct = named_example(name)
    report = _report(name, p)
    dropped = copy.deepcopy(report)
    dropped["refutation"]["witnesses"].pop()
    assert verify_report(struct, dropped) == ["farkas length mismatch"]

    farkas = report["refutation"]["farkas"]
    for i in (i for i, y in enumerate(farkas) if Fraction(y)):
        alone = copy.deepcopy(report)
        alone["refutation"]["farkas"] = [y if j == i else "0" for j, y in enumerate(farkas)]
        # a witness that pairs to zero with every closed form certifies alone,
        # and then any positive multiple of its multiplier does too
        expected = ["farkas certificate invalid"] if verify_report(struct, alone) else []
        assert verify_report(struct, _doubled(report, i)) == expected


@pytest.mark.parametrize("name,p", _witness_family_cases())
def test_multiplier_off_the_support_fails_verification(name, p):
    """verify_report pairs only the witnesses whose multiplier is nonzero; a
    multiplier put on any other witness must still be checked."""
    struct = named_example(name)
    report = _report(name, p)
    witnesses = [form_from_json(w, struct.n) for w in report["refutation"]["witnesses"]]
    forms = [form_from_json(f, struct.n) for f in report["closed_basis"]]
    rows = [[positivity.volume_coefficient(f, psi).re for f in forms] for psi in witnesses]
    farkas = report["refutation"]["farkas"]
    for j in (j for j, y in enumerate(farkas) if not Fraction(y)):
        negative = copy.deepcopy(report)
        negative["refutation"]["farkas"][j] = "-1"
        assert verify_report(struct, negative) == ["farkas certificate invalid"]
        for i in (i for i, y in enumerate(farkas) if Fraction(y)):
            moved = copy.deepcopy(report)
            moved["refutation"]["farkas"][i] = "0"
            moved["refutation"]["farkas"][j] = farkas[i]
            # the move adds y_i (row_j - row_i) to y A and leaves y b as it is
            expected = [] if rows[i] == rows[j] else ["farkas certificate invalid"]
            assert verify_report(struct, moved) == expected


def test_non_simple_witness_is_the_only_failure():
    name = "snn8f1:0,0,0,1"
    report = copy.deepcopy(_report(name, 2))
    report["refutation"]["witnesses"][3] = form_to_json(monomial(4, (1, 2)) + monomial(4, (3, 4)))
    assert verify_report(named_example(name), report) == ["witness is not simple"]


@pytest.mark.parametrize("name,p", [("h5r", 2), ("qn8b", 3)])
def test_doubled_multiplier_fails_verification(name, p):
    report = _report(name, p)
    for i in (0, 1):
        assert verify_report(named_example(name), _doubled(report, i)) == [
            "farkas certificate invalid"
        ]


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, p in _cases():
        with open(_path(name, p), "w") as fh:
            fh.write(_find_json(name, p))
    for name in SNN8_NAMES:
        with open(_obstruct_path(name), "w") as fh:
            fh.write(_obstruct_json(name))
