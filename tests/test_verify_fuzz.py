"""`pkl verify` on mutated golden reports: exit 0 or 1, never a traceback.

Each example takes one golden `find` or `obstruct` report, replaces or
deletes one field anywhere in it (numbers, lists, strings, missing keys)
and runs the CLI in-process.  A report that still verifies, a `FAIL:` line
and an `input error:` are all fine; any other exception is a defect.
"""

import json
import os

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
    name = draw(st.sampled_from(FILES))
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
    max_examples=200,
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
