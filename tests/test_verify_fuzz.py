"""`pkl verify` on mutated reports: exit 0 or 1, never a traceback.

Each example takes one report, replaces or deletes one field anywhere in it
(numbers, lists, strings, missing keys) and runs the CLI in-process.  The
reports are golden `find` and `obstruct` reports and `restrict`,
`quotient`, `validate` and `aab-kahler` reports made here through the CLI.
A report that still verifies, a `FAIL:` line and an `input error:` are all
fine; any other exception is a defect.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pklie.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# small instances of every report shape: witness family, FOUND, obstruction
FILES = [
    "kt.p1.json",
    "h5r.p2.json",
    "iwasawa.p2.json",
    "torus3.p1.json",
    "snn8f1_0,1,1,1~2.obstruct.p2.json",
    "snn8f2_1,0,0,0,2.obstruct.p2.json",
]
REPORTS = {}
for name in FILES:
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        REPORTS[name] = json.load(fh)

KAHLER_11 = "i a1_b1 + i a2_b2"
# an adapted Kahler payload and a non-adapted one, decided through the
# minimal polynomial
AAB_PAYLOADS = {
    "kahler": {
        "n": 3,
        "lambda": "0",
        "v": ["0", "0", "0", "0"],
        "A": [["0", "0", "0", "-1"], ["0", "0", "-2", "0"], ["0", "2", "0", "0"], ["1", "0", "0", "0"]],
    },
    "min_poly": {
        "n": 3,
        "lambda": "-2",
        "v": ["-1", "-2", "0", "1"],
        "A": [["2", "0", "2", "0"], ["-2", "-1", "-2", "1"], ["-1", "2", "-1", "-2"], ["0", "-2", "0", "2"]],
    },
}
CLI_RUNS = {
    **{f"restrict {c}": ["restrict", "--catalog", c, "--omega", KAHLER_11] for c in ("kt", "iwasawa", "h5r")},
    "quotient kt p1": ["quotient", "--catalog", "kt", "--p", "1", "--omega", KAHLER_11],
    "quotient kt p2": ["quotient", "--catalog", "kt", "--p", "2", "--omega", "a12_b12"],
    "quotient iwasawa": ["quotient", "--catalog", "iwasawa", "--p", "1", "--omega", KAHLER_11],
    "quotient h5r": ["quotient", "--catalog", "h5r", "--p", "2", "--omega", "a12_b12"],
    **{f"validate {c}": ["validate", "--catalog", c] for c in ("kt", "iwasawa", "h5r")},
}


def _cli_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0, argv
    return json.loads(out.getvalue())


for name, argv in CLI_RUNS.items():
    REPORTS[name] = _cli_report(argv)
with tempfile.TemporaryDirectory() as tmp:
    for name, payload in AAB_PAYLOADS.items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"almost_abelian": payload}, fh)
        REPORTS[f"aab-kahler {name}"] = _cli_report(["aab-kahler", "--in", path])


def _paths(node, prefix=()):
    """Every (container path, key or index) in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


REPLACEMENTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, 9, 10**6, True, False, None, 1.5, float("nan")]),
    st.sampled_from(["", "0", "1", "-1", "1/0", "1/2", "i", "x", "a1", "[]"]),
    st.sampled_from([[], [1], ["1"], [["1"]], [{}], {}, {"re": "1"}]),
    st.integers(-3, 12),
)


@st.composite
def mutated_reports(draw):
    name = draw(st.sampled_from(sorted(REPORTS)))
    report = json.loads(json.dumps(REPORTS[name]))
    sites = list(_paths(report))
    prefix, key = draw(st.sampled_from(sites))
    container = report
    for step in prefix:
        container = container[step]
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(REPLACEMENTS)
    return report


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(mutated_reports())
def test_verify_mutated_golden_report_exits_cleanly(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert not err or err.startswith("input error:")
