"""Cold-start structure of the package and the CLI: `import pklie` loads no
engine module, and each `pkl` command loads only the modules it runs.

Every check that starts an interpreter runs it with PYTHONDONTWRITEBYTECODE
and a throwaway PYTHONPYCACHEPREFIX, so it neither reads nor writes bytecode
next to the sources and does not depend on what an earlier run compiled.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pklie
import pklie.catalog
import pklie.obstruction
import pklie.pkahler
import pklie.positivity
from pklie.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

_AAB = {
    "almost_abelian": {
        "n": 3,
        "lambda": "0",
        "v": ["0", "0", "0", "0"],
        "A": [["0", "0", "0", "-1"], ["0", "0", "-2", "0"], ["0", "2", "0", "0"], ["1", "0", "0", "0"]],
    }
}

# Runs `main` on its arguments with stdout captured, then prints the exit
# code and the pklie modules loaded.
_LOADED = """
import contextlib, io, json, sys
from pklie.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("pklie"))]))
"""


def fresh_python(tmp_path, *argv):
    """Run `python argv` in a new interpreter that compiles every module
    from source; returns the finished process."""
    env = dict(os.environ)
    path = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env.update(
        PYTHONPATH=os.pathsep.join(path),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"),
    )
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert not (tmp_path / "pycache").exists()
    return proc


def loaded_modules(tmp_path, *args) -> list[str]:
    proc = fresh_python(tmp_path, "-c", _LOADED, *args)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return modules


@pytest.fixture
def aab_files(tmp_path, capsys):
    """An almost-abelian payload and the aab-kahler report made from it."""
    payload = tmp_path / "aab.json"
    payload.write_text(json.dumps(_AAB))
    assert main(["aab-kahler", "--in", str(payload), "--format", "json"]) == 0
    report = tmp_path / "aab_report.json"
    report.write_text(capsys.readouterr().out)
    return payload, report


def test_import_pklie_loads_no_submodule(tmp_path):
    code = "import sys, pklie; print(sorted(m for m in sys.modules if m.startswith('pklie')))"
    proc = fresh_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['pklie']"]


def test_every_public_name_is_the_object_of_its_home_module():
    for name in pklie.__all__:
        obj = getattr(pklie, name)
        assert obj.__module__.startswith("pklie.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        # read from the home module on every access, never stored in the package
        assert name not in vars(pklie)
    assert set(pklie.__all__) <= set(dir(pklie))
    with pytest.raises(AttributeError):
        pklie.no_such_name


def test_a_public_name_follows_a_rebinding_in_its_home_module(monkeypatch):
    original = pklie.positivity.gram_matrix
    monkeypatch.setattr(pklie.positivity, "gram_matrix", lambda *args: None)
    assert pklie.gram_matrix is pklie.positivity.gram_matrix
    monkeypatch.undo()
    assert pklie.gram_matrix is original


def test_aab_kahler_and_its_verify_load_only_the_light_modules(tmp_path, aab_files):
    payload, report = aab_files
    light = ["pklie", "pklie.almost_abelian", "pklie.cli", "pklie.linalg", "pklie.polynomials",
             "pklie.scalars"]
    assert loaded_modules(tmp_path, "aab-kahler", "--in", str(payload)) == light
    assert loaded_modules(tmp_path, "verify", str(report)) == light


def test_catalog_listing_loads_only_the_name_table(tmp_path):
    assert loaded_modules(tmp_path, "catalog") == ["pklie", "pklie.catalog_names", "pklie.cli", "pklie.scalars"]
    assert loaded_modules(tmp_path, "catalog", "--format", "json") == loaded_modules(tmp_path, "catalog")


_PIPELINE = {"pklie.pkahler", "pklie.positivity", "pklie.simplex"}
_ALMOST_ABELIAN = {"pklie.almost_abelian", "pklie.polynomials"}
_SNN8_BETA = ["--catalog", "snn8f1:0,0,1,0", "--p", "2", "--beta=-1 a13_b2"]


def test_validate_loads_no_pkahler_pipeline(tmp_path, capsys):
    # classify on a nilpotent structure runs the closed-coframe obstruction
    # too; verify rebuilds both reports through the same bodies, and
    # re-checks the certificate of the obstruct report
    runs = (["validate", "--catalog", "iwasawa"], ["classify", "--catalog", "kt"], ["obstruct", *_SNN8_BETA])
    for argv in runs:
        assert main([*argv, "--format", "json"]) == 0
        report = tmp_path / f"{argv[0]}.json"
        report.write_text(capsys.readouterr().out)
        for run in (argv, ["verify", str(report)]):
            modules = set(loaded_modules(tmp_path, *run))
            assert "pklie.cxstruct" in modules
            assert not (_PIPELINE | _ALMOST_ABELIAN) & modules


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--catalog", "kt"],
        ["find", "--catalog", "kt", "--p", "1"],
        ["obstruct", "--catalog", "kt", "--p", "1"],
        ["obstruct", *_SNN8_BETA],
    ],
    ids=["validate", "find", "obstruct-search", "obstruct-beta"],
)
def test_catalog_structure_commands_load_no_almost_abelian_or_reduction_module(tmp_path, argv):
    modules = set(loaded_modules(tmp_path, *argv))
    assert "pklie.catalog" in modules
    assert not (_ALMOST_ABELIAN | {"pklie.reductions"}) & modules


def test_catalog_reexports_the_almost_abelian_names_on_first_access(tmp_path):
    code = """
import json, sys
import pklie.catalog as catalog
name = "kahler_decision_almost_abelian"
seen = [name in vars(catalog), "pklie.almost_abelian" in sys.modules]
decide = catalog.kahler_decision_almost_abelian
import pklie.almost_abelian as home
print(json.dumps(seen + [decide is home.kahler_decision_almost_abelian, name in vars(catalog)]))
"""
    proc = fresh_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, True, True]
    with pytest.raises(AttributeError):
        pklie.catalog.no_such_name


def test_pkahler_binds_the_obstruction_check_of_its_home_module():
    # the benchmark tracer finds the span `pkahler.obstruction_check` there
    assert pklie.pkahler.obstruction_check is pklie.obstruction.obstruction_check


@pytest.mark.parametrize(
    "argv",
    [
        ["aab-kahler", "--in", "{payload}", "--format", "json"],
        ["find", "--catalog", "kt", "--p", "1", "--format", "json"],
        ["obstruct", *_SNN8_BETA, "--format", "json"],
        ["classify", "--catalog", "qn8a", "--format", "json"],
        ["restrict", "--catalog", "torus3", "--omega", "a12_b12 + a13_b13 + a23_b23"],
        ["quotient", "--catalog", "torus3", "--p", "2", "--omega", "a12_b12 + a13_b13 + a23_b23"],
    ],
    ids=["aab-kahler", "find", "obstruct", "classify", "restrict", "quotient"],
)
def test_cold_cli_prints_what_main_prints(tmp_path, capsys, aab_files, argv):
    argv = [a.replace("{payload}", str(aab_files[0])) for a in argv]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = fresh_python(tmp_path, "-m", "pklie.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
