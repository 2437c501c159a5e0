"""Golden reports: `pkl find --format json --seed 0` must stay byte-identical.

Covers every registry instance at every 1 <= p < n, plus twelve instances of
the two 8-dimensional SnN families at p = 2.  Refactors and speedups of the
exact core must reproduce these bytes; a change of any verdict, closed basis,
certificate or statistic shows up here.  Every golden report must also pass
`verify_report`, and tampered witness families must fail it.

After an intended change of the reports, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py --regen`.
"""

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import pytest

from pklie.catalog import named_example, registry
from pklie.cli import main
from pklie.pkahler import verify_report

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


def _find_json(name: str, p: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["find", "--catalog", name, "--p", str(p), "--format", "json", "--seed", "0"])
    return out.getvalue()


@pytest.mark.parametrize("name,p", _cases())
def test_find_report_matches_golden(name, p):
    with open(_path(name, p)) as fh:
        expected = fh.read()
    assert _find_json(name, p) == expected


def test_every_golden_file_is_a_case():
    expected = {os.path.basename(_path(name, p)) for name, p in _cases()}
    assert set(os.listdir(GOLDEN_DIR)) == expected


def _report(name: str, p: int) -> dict:
    with open(_path(name, p)) as fh:
        return json.load(fh)["report"]


@pytest.mark.parametrize("name,p", _cases())
def test_golden_report_passes_verification(name, p):
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
