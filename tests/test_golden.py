"""Golden reports: `pkl find --format json --seed 0` must stay byte-identical.

Covers every registry instance at every 1 <= p < n, plus twelve instances of
the two 8-dimensional SnN families at p = 2.  Refactors and speedups of the
exact core must reproduce these bytes; a change of any verdict, closed basis,
certificate or statistic shows up here.

After an intended change of the reports, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py --regen`.
"""

import contextlib
import io
import os
import sys

import pytest

from pklie.catalog import named_example, registry
from pklie.cli import main

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


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, p in _cases():
        with open(_path(name, p), "w") as fh:
            fh.write(_find_json(name, p))
