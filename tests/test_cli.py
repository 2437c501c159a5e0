import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pklie.catalog import named_example
from pklie.cli import main
from pklie.cxstruct import struct_to_json
from test_golden import SNN8_NAMES

PKL = [sys.executable, "-m", "pklie.cli"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_find_torus_text(capsys):
    code, out = run_cli(["find", "--catalog", "torus4", "--p", "2"], capsys)
    assert code == 0
    assert "FOUND" in out
    assert "a12_b12" in out


def test_find_kt_refuted_json(capsys):
    code, out = run_cli(["find", "--catalog", "kt", "--p", "1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["verdict"] == "REFUTED"
    assert data["report"]["refutation"]["kind"] == "witness_family"


def test_obstruct_check_family1(capsys):
    code, out = run_cli(
        [
            "obstruct",
            "--catalog",
            "snn8f1:0,0,1,0",
            "--p",
            "2",
            "--beta",
            "-1 a13_b2",
        ],
        capsys,
    )
    assert code == 0
    assert "OBSTRUCTED" in out
    assert "a12_b12" in out


_TOWER_D4 = {"n": 4, "dalpha": {"a4": "(1-i) a13 + a23"}}


@pytest.mark.parametrize(
    "extra, expected",
    [
        # beta's (2,2) part of d beta has off-diagonal terms and no decomposition
        (["--beta=(1+i) a4_b13 + a4_b23"], "REJECTED: "),
        ([], "no obstruction found"),
    ],
)
def test_obstruct_without_a_certificate_exits_inconclusive(extra, expected, tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(_TOWER_D4))
    code, out = run_cli(["obstruct", "--in", str(path), "--p", "2", *extra], capsys)
    assert code == 2
    assert out.startswith(expected)


def test_obstruct_search_torus_inconclusive(capsys):
    code, out = run_cli(["obstruct", "--catalog", "torus4", "--p", "2"], capsys)
    assert code == 2


def test_obstruct_checks_the_empty_candidate(capsys):
    # an empty --beta is the zero form, not a request to search
    code, out = run_cli(["obstruct", "--catalog", "kt", "--p", "1", "--beta", ""], capsys)
    assert (code, out) == (2, "REJECTED: beta must be a nonzero (1)-form\n")


def test_classify_kt(capsys):
    code, out = run_cli(["classify", "--catalog", "kt"], capsys)
    assert code == 0
    assert "NILPOTENT" in out
    code, out = run_cli(["classify", "--catalog", "snn8f1:0,0,1,0"], capsys)
    assert code == 0
    assert "SNN" in out


@pytest.mark.parametrize(
    "name, expected",
    [
        *((name, True) for name in ("kt", "torus2", "torus3", "torus4")),
        *(
            (name, False)
            for name in (
                "h5r",
                "iwasawa",
                "iwasawa_x_c",
                "qn8a",
                "qn8b",
                "qn8c",
                "snn8f1:1,1,1,1",
                "snn8f2:1,1,0,0,0",
            )
        ),
    ],
)
def test_classify_json_reports_almost_abelian(name, expected, capsys):
    code, out = run_cli(["classify", "--catalog", name, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["almost_abelian"] is expected


def test_validate_and_catalog(capsys):
    code, out = run_cli(["validate", "--catalog", "iwasawa"], capsys)
    assert code == 0 and "VALID" in out
    code, out = run_cli(["catalog"], capsys)
    assert code == 0 and "torus4" in out


def test_input_error_exit_code(capsys):
    code = main(["find", "--catalog", "not_a_name", "--p", "2"])
    assert code == 1
    code = main(["find", "--p", "2"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["find", "--catalog", "kt"],
        ["find", "--catalog", "kt", "--p", "1", "--bogus"],
        ["obstruct", "--catalog", "kt", "--p", "1", "--seed", "3"],
    ],
    ids=["missing_p", "unknown_option", "seed_outside_find"],
)
def test_usage_error_is_an_input_error(argv, capsys):
    # exit 2 means INCONCLUSIVE, so a usage error must not keep argparse's 2
    _assert_input_error(argv, capsys)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["find", "--help"])
    assert exc.value.code == 0
    assert "--witness-cap" in capsys.readouterr().out


def test_json_reports_are_deterministic(capsys):
    args = ["find", "--catalog", "qn8b", "--p", "2", "--format", "json", "--seed", "0"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_round_trip(tmp_path, capsys):
    for args in (
        ["find", "--catalog", "torus4", "--p", "2", "--format", "json"],
        ["find", "--catalog", "kt", "--p", "1", "--format", "json"],
        ["find", "--catalog", "snn8f1:0,0,1,0", "--p", "2", "--format", "json"],
    ):
        code, out = run_cli(args, capsys)
        assert code == 0
        path = tmp_path / "report.json"
        path.write_text(out)
        code, out2 = run_cli(["verify", str(path)], capsys)
        assert code == 0, out2
        assert "verified" in out2


@pytest.mark.parametrize("name", SNN8_NAMES + ["qn8a", "qn8b", "qn8c"])
def test_obstruct_search_verify_round_trip(name, tmp_path, capsys):
    code, out = run_cli(["obstruct", "--catalog", name, "--p", "2"], capsys)
    assert code == 0
    assert out.startswith("OBSTRUCTED")
    code, out = run_cli(["obstruct", "--catalog", name, "--p", "2", "--format", "json"], capsys)
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out2 = run_cli(["verify", str(path)], capsys)
    assert code == 0, out2
    assert "verified" in out2


def test_verify_detects_tampering(tmp_path, capsys):
    code, out = run_cli(["find", "--catalog", "kt", "--p", "1", "--format", "json"], capsys)
    data = json.loads(out)
    data["report"]["refutation"]["farkas"] = ["0"] * len(
        data["report"]["refutation"]["farkas"]
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_restrict_command(capsys):
    code, out = run_cli(
        [
            "restrict",
            "--catalog",
            "torus3",
            "--omega",
            "a12_b12 + a13_b13 + a23_b23",
        ],
        capsys,
    )
    assert code == 0
    assert "closed: True" in out


def test_quotient_command(capsys):
    code, out = run_cli(
        [
            "quotient",
            "--catalog",
            "torus3",
            "--p",
            "2",
            "--omega",
            "a12_b12 + a13_b13 + a23_b23",
        ],
        capsys,
    )
    assert code == 0
    assert "complex dimension 2" in out


def test_aab_kahler_command(tmp_path, capsys):
    payload = {
        "almost_abelian": {
            "n": 3,
            "lambda": "0",
            "v": ["0", "0", "0", "0"],
            "A": [
                ["0", "0", "0", "-1"],
                ["0", "0", "-2", "0"],
                ["0", "2", "0", "0"],
                ["1", "0", "0", "0"],
            ],
        }
    }
    path = tmp_path / "aab.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["aab-kahler", "--in", str(path)], capsys)
    assert code == 0
    assert "kahler: True" in out


def test_find_reads_no_search_budget_and_no_environment_seed(capsys, monkeypatch):
    # every step of find is exact: no search reads a restart or step budget,
    # and the report's seed is the --seed given, whatever PKL_SEED holds
    for flag in ("--budget-restarts", "--budget-steps"):
        assert main(["find", "--catalog", "kt", "--p", "1", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and flag in err
    monkeypatch.setenv("PKL_SEED", "7")
    code, out = run_cli(
        ["find", "--catalog", "torus2", "--p", "1", "--format", "json", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 3


def test_find_options_are_the_ones_it_reads():
    import argparse

    from pklie.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt for action in sub.choices["find"]._actions if action.dest != "help"
        for opt in action.option_strings
    }
    assert options == {"--catalog", "--in", "--format", "--p", "--seed", "--witness-cap"}


def test_console_entry_point():
    proc = subprocess.run(
        PKL + ["catalog"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "iwasawa" in proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    # no pklie module imports numpy, which would cost about as much as the
    # rest of a cold `pkl` start
    code = (
        "import sys, pklie\n"
        "if 'numpy' in sys.modules: sys.exit('import pklie loaded numpy')\n"
        "import pklie.cli\n"
        "if 'numpy' in sys.modules: sys.exit('import pklie.cli loaded numpy')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exact_decisions_leave_numpy_unloaded():
    # every decision is exact: the projection, the LP rounds, p = 1 and
    # p = n-1 witnesses and, at 1 < p < n-1, the monomial and pencil scans
    # (draws 43 and 44 of the tower census reach the pencil scan) never load
    # numpy, INCONCLUSIVE ones included
    code = """
import random, sys
from pklie.catalog import build_almost_abelian, named_example
from pklie.pkahler import find_pkahler
from pklie.positivity import SearchBudget
from test_acceptance import _random_integrable_data
from test_fuzz_pipeline import random_tower

aab = build_almost_abelian(_random_integrable_data(3, random.Random(5), False))
budget = SearchBudget(restarts=20, steps=100, witness_cap=6)
rng = random.Random(5)
towers = [random_tower(4, rng) for _ in range(45)]
cases = [(named_example(name), p, None) for name, p in
         [("kt", 1), ("torus3", 2), ("iwasawa", 1), ("qn8b", 3)]]
cases += [(aab, 1, budget), (towers[43], 2, None), (towers[44], 2, None)]
verdicts = [find_pkahler(s, p, b).verdict.value for s, p, b in cases]
print(" ".join(verdicts))
sys.exit('numpy' in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent)] + [x for x in env.get("PYTHONPATH", "").split(os.pathsep) if x]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == [
        "REFUTED", "FOUND", "REFUTED", "REFUTED", "INCONCLUSIVE", "REFUTED", "INCONCLUSIVE"
    ]


def test_verify_restrict_and_quotient(tmp_path, capsys):
    code, out = run_cli(
        [
            "restrict",
            "--catalog",
            "torus3",
            "--omega",
            "a12_b12 + a13_b13 + a23_b23",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    path = tmp_path / "restrict.json"
    path.write_text(out)
    code, out2 = run_cli(["verify", str(path)], capsys)
    assert code == 0, out2
    code, out = run_cli(
        [
            "quotient",
            "--catalog",
            "torus3",
            "--p",
            "2",
            "--omega",
            "a12_b12 + a13_b13 + a23_b23",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    path = tmp_path / "quotient.json"
    path.write_text(out)
    code, out2 = run_cli(["verify", str(path)], capsys)
    assert code == 0, out2


_CERTIFIED = "certificate verified (exact arithmetic)\n"
_REBUILT = "report rebuilt and matched (exact arithmetic)\n"


@pytest.mark.parametrize("name", ["kt", "iwasawa", "h5r", "qn8a", "torus3"])
def test_every_json_report_verifies(name, tmp_path, capsys):
    omega = " + ".join(f"i a{j}_b{j}" for j in range(1, named_example(name).n + 1))
    runs = [
        ["validate"],
        ["classify"],
        ["find", "--p", "1"],
        ["restrict", "--omega", omega],
        ["quotient", "--p", "1", "--omega", omega],
        ["obstruct", "--p", "1"],
        ["obstruct", "--p", "1", "--beta=a1"],
        ["obstruct", "--p", "1", "--beta="],
    ]
    path = tmp_path / "report.json"
    obstructed = []
    for argv in runs:
        code, out = run_cli([*argv, "--catalog", name, "--format", "json"], capsys)
        report = json.loads(out)
        # only an obstruct run that certifies nothing is INCONCLUSIVE
        assert code == (0 if report.get("obstructed", True) else 2), argv
        path.write_text(out)
        verified = run_cli(["verify", str(path)], capsys)
        # only find and a certifying obstruct carry a certificate
        line = _CERTIFIED if argv[0] == "find" or report.get("obstructed") else _REBUILT
        assert verified == (0, line), argv
        if argv[0] == "obstruct":
            obstructed.append(report["obstructed"])
    # a certificate (none on the torus), then two rejected candidates
    assert obstructed == [None if name == "torus3" else True, False, False]


def test_equation_mode_input_with_params(tmp_path, capsys):
    payload = {"n": 2, "dalpha": {"a2": "eps a1_b1"}, "params": {"eps": "1"}}
    path = tmp_path / "kt.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["find", "--in", str(path), "--p", "1"], capsys)
    assert code == 0
    assert "REFUTED" in out


def test_real_constants_plus_matrix_input(tmp_path, capsys):
    payload = {
        "dim": 4,
        "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}],
        "J": [
            ["0", "-1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ],
    }
    path = tmp_path / "kt_real.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["classify", "--in", str(path)], capsys)
    assert code == 0
    assert "NILPOTENT" in out


def test_aab_kahler_verify_round_trip(tmp_path, capsys):
    payload = {
        "almost_abelian": {
            "n": 3,
            "lambda": "0",
            "v": ["0", "0", "0", "0"],
            "A": [
                ["0", "0", "0", "-1"],
                ["0", "0", "-2", "0"],
                ["0", "2", "0", "0"],
                ["1", "0", "0", "0"],
            ],
        }
    }
    path = tmp_path / "aab.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["aab-kahler", "--in", str(path), "--format", "json"], capsys)
    assert code == 0
    report_path = tmp_path / "aab_report.json"
    report_path.write_text(out)
    code, out2 = run_cli(["verify", str(report_path)], capsys)
    assert code == 0
    # tamper with the verdict
    data = json.loads(out)
    data["kahler"] = not data["kahler"]
    report_path.write_text(json.dumps(data))
    code, out3 = run_cli(["verify", str(report_path)], capsys)
    assert code == 1


def test_invalid_algebra_input_rejected(tmp_path, capsys):
    # fails the Jacobi identity: downstream commands refuse it
    payload = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "k": 3, "c": "1"},
            {"i": 1, "j": 3, "k": 1, "c": "1"},
        ],
        "J": [
            ["0", "-1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["find", "--in", str(path), "--p", "1"])
    capsys.readouterr()
    assert code == 1


_J4 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]


def _kt_input(edit):
    """The serialized kt structure after `edit` has changed it in place."""
    data = struct_to_json(named_example("kt"))
    edit(data)
    return data


def test_validate_dependent_coframe_rows(tmp_path, capsys):
    path = tmp_path / "kt.json"
    path.write_text(json.dumps(_kt_input(lambda d: d["coframe"].__setitem__(1, list(d["coframe"][0])))))
    assert main(["validate", "--in", str(path)]) == 1
    assert capsys.readouterr().err == "input error: coframe rows are linearly dependent\n"


def _assert_input_error(argv, capsys):
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")


def _bracket_c(c):
    return {"dim": 4, "brackets": [{"i": 1, "j": 2, "k": 3, "c": c}], "J": _J4}


@pytest.mark.parametrize(
    "payload, named",
    [
        ({**_bracket_c("1"), "coframe": [["0", "0", "1", "i"], ["1", "i", "0", "0"]]}, "'coframe'"),
        ({**_bracket_c("1"), "d": {"e3": "e1^e2"}}, "brackets or d"),
        ({"dim": 4, "J": _J4}, "brackets or d"),
        ({"n": 2, "dalpha": {"a2": "a1_b1"}, "J": _J4}, "'J'"),
        (_kt_input(lambda d: d.update(brackets=[])), "'brackets'"),
        (_kt_input(lambda d: d["algebra"].update(note="x")), "'note'"),
        (_kt_input(lambda d: d["algebra"].update(d={"e3": "e1^e2"})), "brackets or d"),
        (_kt_input(lambda d: d["algebra"]["brackets"][0].update(sign="-1")), "'sign'"),
        ({**_bracket_c("1"), "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1", "sign": "-1"}]}, "'sign'"),
    ],
    ids=[
        "bracket_with_coframe",
        "brackets_and_d",
        "J_without_an_algebra",
        "dalpha_with_J",
        "serialized_with_brackets",
        "serialized_algebra_with_note",
        "serialized_algebra_with_brackets_and_d",
        "serialized_bracket_with_sign",
        "bracket_with_sign",
    ],
)
def test_key_its_format_does_not_read_is_an_input_error(tmp_path, capsys, payload, named):
    # reading past such a key would build a structure the payload does not
    # describe: J's canonical coframe for the given one, the algebra of d for
    # that of brackets (d a^2 of the opposite sign), the equations' J for the
    # given one, an abelian algebra for a J given alone, [e_1, e_2] = e_3
    # for a bracket whose sign key says otherwise
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and named in err


# JSON scalars that are neither a string nor an int, and the error naming the field
_WRONG_SCALARS = {
    "bracket_c_a_bool": (_bracket_c(True), "bracket 'c' must be a string or an int, got True"),
    "bracket_c_a_float": (_bracket_c(1.5), "bracket 'c' must be a string or an int, got 1.5"),
    "J_entry_a_bool": (
        {**_bracket_c("1"), "J": [[True, "-1", "0", "0"], *_J4[1:]]},
        "J entry must be a string or an int, got True",
    ),
    "coframe_entry_a_float": (
        _kt_input(lambda d: d["coframe"][0].__setitem__(0, 1.5)),
        "coframe entry must be a string or an int, got 1.5",
    ),
    "param_a_bool": (
        {"n": 2, "dalpha": {"a2": "eps a1_b1"}, "params": {"eps": True}},
        "param 'eps' must be a string or an int, got True",
    ),
    "param_a_float": (
        {"n": 2, "dalpha": {"a2": "eps a1_b1"}, "params": {"eps": 1.5}},
        "param 'eps' must be a string or an int, got 1.5",
    ),
}


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2, "dalpha": {"a9": "a1_b1"}},  # used to be dropped, leaving the torus
        {"n": 2, "dalpha": {"aa2": "a1_b1"}},
        {"n": 2, "dalpha": {"2": "a1_b1"}},
        {"n": 2, "dalpha": {"a2": "a1_b1 +"}},  # used to parse as a1_b1
        {"n": 2, "dalpha": {"a2": "0 a21 + a1_b1"}},  # used to parse as a1_b1
        {"n": 2, "dalpha": {"a2": 1}},
        {"n": -1, "dalpha": {}},
        {"n": 2.5, "dalpha": {"a2": "a1_b1"}},
        {"n": 2, "dalpha": {"a2": "eps a1_b1"}, "params": ["eps"]},
        {"n": 2, "dalpha": {"a2": "i a1_b1"}, "params": {"i": "2"}},  # used to read i as the imaginary unit
        {"n": 2, "dalpha": {"a2": "a1_b1"}, "params": {"e ps": "2"}},
        5,
        {"dim": 4, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}], "J": _J4[:2]},
        {"dim": 4, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}], "J": 5},
        {"dim": 4, "d": {"e3": "e1^e2 +"}, "J": _J4},  # used to parse as e1^e2
        {"dim": 4, "brackets": "x", "J": _J4},
        _kt_input(lambda d: d["coframe"][0].pop()),
        _kt_input(lambda d: d["coframe"][0].append("0")),
        _kt_input(lambda d: d["coframe"].pop()),
        _kt_input(lambda d: d.update(coframe=5)),
        _kt_input(lambda d: d.update(dalpha=5)),
        _kt_input(lambda d: d["dalpha"][1][0].update(holo=5)),
        _kt_input(lambda d: d["dalpha"][1][0].update(anti="12")),
        _kt_input(lambda d: d["dalpha"][1][0].update(re=[1])),
        _kt_input(lambda d: d["dalpha"][1][0].update(im="1/0")),
        _kt_input(lambda d: d["dalpha"][1][0].pop("anti")),
        _kt_input(lambda d: d["dalpha"][1][0].update(holo=[2, 1])),  # not read as holo [1, 2]
        _kt_input(lambda d: d["dalpha"][1][0].update(holo=[1, 1])),
        _kt_input(lambda d: d["dalpha"][1][0].update(holo=[0])),
        {"dim": 4, "d": 5, "J": _J4},
        {"dim": [4], "brackets": [], "J": _J4},
        {"dim": True, "brackets": [], "J": _J4},
        {"dim": 4, "brackets": [{"i": "1", "j": 2, "k": 3, "c": "1"}], "J": _J4},
        {"dim": 4, "brackets": [{"i": 1, "j": 2.0, "k": 3, "c": "1"}], "J": _J4},
        {"dim": 4, "brackets": [{"i": 1, "j": 2, "k": [3], "c": "1"}], "J": _J4},
        {"dim": "4", "d": {"e3": "e1^e2"}, "J": _J4},
        *(payload for payload, _ in _WRONG_SCALARS.values()),
    ],
    ids=[
        "key_out_of_range",
        "key_aa2",
        "key_without_a",
        "dangling_operator",
        "zero_coefficient_descending",
        "literal_not_a_string",
        "negative_n",
        "fractional_n",
        "params_not_an_object",
        "param_named_i",
        "param_not_an_identifier",
        "input_not_an_object",
        "J_two_rows",
        "J_not_a_list",
        "real_dangling_operator",
        "brackets_not_a_list",
        "coframe_short_row",
        "coframe_long_row",
        "coframe_missing_row",
        "coframe_not_a_list",
        "dalpha_not_a_list",
        "term_holo_not_a_list",
        "term_anti_a_string",
        "term_re_a_list",
        "term_im_zero_denominator",
        "term_without_anti",
        "term_holo_descending",
        "term_holo_repeated",
        "term_holo_zero",
        "d_not_an_object",
        "dim_a_list",
        "dim_a_bool",
        "bracket_i_a_string",
        "bracket_j_a_float",
        "bracket_k_a_list",
        "coframe_dim_a_string",
        *_WRONG_SCALARS,
    ],
)
def test_malformed_equation_input_rejected(tmp_path, capsys, payload):
    path = tmp_path / "eqs.json"
    path.write_text(json.dumps(payload))
    _assert_input_error(["validate", "--in", str(path)], capsys)


@pytest.mark.parametrize("payload, message", _WRONG_SCALARS.values(), ids=list(_WRONG_SCALARS))
def test_json_scalar_of_another_type_names_its_field(tmp_path, capsys, payload, message):
    # a bool or a float used to be read through str(): True as the parameter
    # 'True', 1.5 as a literal with an unexpected '.'
    path = tmp_path / "eqs.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("beta", ["a21", "a11", "a15", "b0", "a1_b11", "0 a21 + a123"])
def test_malformed_beta_monomial_rejected(capsys, beta):
    # index lists out of order, repeated or out of range are input errors,
    # never read as another monomial (a21 as a12, or a1_b11 as a1_b1), nor
    # dropped for a zero coefficient
    _assert_input_error(["obstruct", "--catalog", "torus4", "--p", "2", "--beta", beta], capsys)


def test_classify_computes_the_ascending_series_once(capsys, monkeypatch):
    from pklie import reductions

    calls = []
    series = reductions.ascending_series
    monkeypatch.setattr(reductions, "ascending_series", lambda struct: calls.append(struct) or series(struct))
    assert main(["classify", "--catalog", "qn8a"]) == 0
    assert "closed coframe elements" in capsys.readouterr().out
    assert len(calls) == 1


def test_zero_denominator_in_literal_rejected(capsys):
    argv = ["obstruct", "--catalog", "torus4", "--p", "2", "--beta", "1/0 a1"]
    _assert_input_error(argv, capsys)


@pytest.mark.parametrize(
    "name, message",
    [
        ("snn8f2:1,1,0,0,0:-1", "snn8f2 takes eps,mu,nu,a,b and no delta"),
        ("snn8f1:0,0,1,1:1:7", "snn8f1 takes eps,nu,a,b[:delta]"),
        ("snn8f2:1,1,0,0", "family 2 takes the parameters eps,mu,nu,a,b, got 4 values"),
        ("snn8f1:0,0,1,1,0", "family 1 takes the parameters eps,nu,a,b, got 5 values"),
        ("snn8f2:1,1,1,0,0", "tuple (eps,mu,nu) = (1, 1, 1) is not admissible"),
    ],
)
def test_malformed_catalog_name_rejected(capsys, name, message):
    # extra pieces used to be ignored, and a short tuple printed an unpacking error
    assert main(["classify", "--catalog", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize(
    "budget",
    [
        ["--witness-cap", "-1"],
        ["--witness-cap", "0"],
        ["--witness-cap", "x"],
        ["--seed", "abc"],
        ["--seed", "-1"],
    ],
)
def test_find_rejects_malformed_budget(capsys, budget):
    _assert_input_error(["find", "--catalog", "kt", "--p", "1", *budget], capsys)


@pytest.mark.parametrize("p", ["7", "0", "-1"])
def test_obstruct_search_rejects_p_out_of_range(capsys, p):
    # the search used to report "no obstruction found" and exit 2
    _assert_input_error(["obstruct", "--catalog", "torus3", "--p", p], capsys)


@pytest.mark.parametrize("p", ["0", "-1", "3"])
def test_quotient_rejects_p_out_of_range(capsys, p):
    # a zero omega used to descend at any p, with exit 0
    assert main(["quotient", "--catalog", "kt", "--p", p, "--omega", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "need 1 <= p <= n" in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["find", "--catalog", "kt", "--p", "1"], "report"),
        (["obstruct", "--catalog", "snn8f2:1,1,0,0,0", "--p", "2"], "certificate"),
        (["restrict", "--catalog", "torus3", "--omega", "a12_b12 + a13_b13 + a23_b23"], "omega"),
    ],
    ids=["report", "certificate", "omega"],
)
def test_verify_report_missing_key_rejected(tmp_path, capsys, argv, key):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    del data[key]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    _assert_input_error(["verify", str(path)], capsys)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d["input"].update(note="x"), "'note'"),
        (lambda d: d["input"]["algebra"].update(note="x"), "'note'"),
        (lambda d: d["input"]["algebra"]["brackets"][0].update(sign="-1"), "'sign'"),
    ],
    ids=["input_note", "algebra_note", "bracket_sign"],
)
def test_verify_report_with_a_key_its_structure_does_not_read_rejected(tmp_path, capsys, edit, named):
    # the embedded structure is read as `--in` reads a serialized one
    path = _report_file(tmp_path, capsys, _KT_FIND, edit)
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and named in err


# the complex-parallelizable structure of SL(2,C): unimodular, its closed
# (1,1) space is 0, and its compact quotients are balanced
_SL2C = {"dalpha": {"a1": "a23", "a2": "-a13", "a3": "a12"}}


def _sl2c_find(tmp_path, capsys, p, *fmt):
    path = tmp_path / "sl2c.json"
    path.write_text(json.dumps(_SL2C))
    code, out = run_cli(["find", "--in", str(path), "--p", str(p), *fmt], capsys)
    assert code == 0
    return out


@pytest.mark.parametrize(
    "p, lines",
    [
        (1, ["verdict: REFUTED (p = 1)", "refutation: empty_cone"]),
        (2, ["verdict: FOUND (p = 2)", "form: a12_b12 + a13_b13 + a23_b23"]),
    ],
)
def test_sl2c_find_verdicts_verify(tmp_path, capsys, p, lines):
    assert _sl2c_find(tmp_path, capsys, p).splitlines() == lines
    path = tmp_path / "report.json"
    path.write_text(_sl2c_find(tmp_path, capsys, p, "--format", "json"))
    assert run_cli(["verify", str(path)], capsys) == (0, _CERTIFIED)


_A1_B1 = [{"holo": [1], "anti": [1], "re": "0", "im": "1"}]


@pytest.mark.parametrize(
    "p, edit, failure",
    [
        (1, lambda r: r["stats"].update(closed_dim=1),
         "stats closed_dim is not 0, the dimension of the closed space"),
        (1, lambda r: r["closed_basis"].append(_A1_B1), "closed space mismatch"),
        (1, lambda r: r["refutation"].update(farkas=[]), "unexpected refutation field 'farkas'"),
        (2, lambda r: r["stats"].update(closed_dim=8),
         "stats closed_dim is not 9, the dimension of the closed space"),
        (2, lambda r: r["found_form"].pop(), "Gram pairing is not positive definite"),
    ],
    ids=["empty_cone_closed_dim", "empty_cone_closed_basis", "empty_cone_farkas", "found_closed_dim", "found_form"],
)
def test_sl2c_report_tamper_fails_verify(tmp_path, capsys, p, edit, failure):
    data = json.loads(_sl2c_find(tmp_path, capsys, p, "--format", "json"))
    edit(data["report"])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert run_cli(["verify", str(path)], capsys) == (1, f"FAIL: {failure}\n")


def test_verify_report_with_malformed_term_rejected(tmp_path, capsys):
    code, out = run_cli(["find", "--catalog", "kt", "--p", "1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    data["report"]["closed_basis"][0][0]["holo"] = 5
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    _assert_input_error(["verify", str(path)], capsys)


def _report_file(tmp_path, capsys, argv, edit):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    edit(data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    return str(path)


def _farkas(data, value):
    data["report"]["refutation"]["farkas"] = value


def _coefficient(data, value):
    data["report"]["closed_basis"][0][0]["re"] = value


_KT_FIND = ["find", "--catalog", "kt", "--p", "1"]
_SNN_OBSTRUCT = ["obstruct", "--catalog", "snn8f2:1,1,0,0,0", "--p", "2", "--beta=a14_b1"]
_T3_QUOTIENT = ["quotient", "--catalog", "torus3", "--p", "2"]
_T3_QUOTIENT += ["--omega", "a12_b12 + a13_b13 + a23_b23"]


@pytest.mark.parametrize(
    "argv, edit",
    [
        (_KT_FIND, lambda d: _farkas(d, ["1/0"])),
        (_KT_FIND, lambda d: _farkas(d, [["1"]])),
        (_KT_FIND, lambda d: _farkas(d, [1.5])),
        (_KT_FIND, lambda d: _farkas(d, "1")),
        (_KT_FIND, lambda d: d["report"].update(p=[1])),
        (_KT_FIND, lambda d: d["report"].update(p=True)),
        (_KT_FIND, lambda d: d["report"].update(p="1")),
        (_SNN_OBSTRUCT, lambda d: d.update(p=[2])),
        (_SNN_OBSTRUCT, lambda d: d.update(p=2.0)),
        (_T3_QUOTIENT, lambda d: d.update(p=[2])),
        (_T3_QUOTIENT, lambda d: d.update(p=True)),
        (_KT_FIND, lambda d: _coefficient(d, "1/0")),
        (_KT_FIND, lambda d: _coefficient(d, "1.5.")),
        (_KT_FIND, lambda d: _coefficient(d, "\u00b2")),
        (_KT_FIND, lambda d: _coefficient(d, "")),
        (_KT_FIND, lambda d: _coefficient(d, "-")),
    ],
    ids=[
        "farkas_zero_denominator",
        "farkas_nested_list",
        "farkas_float",
        "farkas_not_a_list",
        "find_p_a_list",
        "find_p_a_bool",
        "find_p_a_string",
        "obstruct_p_a_list",
        "obstruct_p_a_float",
        "quotient_p_a_list",
        "quotient_p_a_bool",
        "coefficient_zero_denominator",
        "coefficient_two_points",
        "coefficient_superscript_digit",
        "coefficient_empty",
        "coefficient_bare_minus",
    ],
)
def test_verify_report_with_malformed_number_rejected(tmp_path, capsys, argv, edit):
    _assert_input_error(["verify", _report_file(tmp_path, capsys, argv, edit)], capsys)


def _found_at_p0(data):
    """A FOUND claim for the constant 0-form on kt; p = 0 is no p-Kahler degree."""
    one = [{"holo": [], "anti": [], "re": "1", "im": "0"}]
    report = data["report"]
    report.pop("refutation")
    report.update(
        p=0,
        verdict="FOUND",
        closed_basis=[one],
        found_form=one,
        found_certificate={"status": "TRANSVERSE", "gram": {"minors": ["1"], "pivots": ["1"]}},
    )


def test_verify_report_outside_1_le_p_lt_n_rejected(tmp_path, capsys):
    _assert_input_error(["verify", _report_file(tmp_path, capsys, _KT_FIND, _found_at_p0)], capsys)


_AAB = {
    "n": 3,
    "lambda": "0",
    "v": ["0", "0", "0", "0"],
    "A": [["0", "0", "0", "-1"], ["0", "0", "-2", "0"], ["0", "2", "0", "0"], ["1", "0", "0", "0"]],
}


@pytest.mark.parametrize(
    "edit",
    [
        {"v": 5},
        {"A": 5},
        {"A": [5, 5, 5, 5]},
        {"v": ["0", "0", "0"]},
        {"n": "3"},
        {"n": [3]},
        {"lambda": True},
        {"v": ["0", 1.5, "0", "0"]},
        {"A": [[True, "0", "0", "-1"], *_AAB["A"][1:]]},
    ],
    ids=[
        "v_not_a_list", "A_not_a_list", "A_rows_not_lists", "v_short", "n_a_string", "n_a_list",
        "lambda_a_bool", "v_entry_a_float", "A_entry_a_bool",
    ],
)
def test_malformed_almost_abelian_input_rejected(tmp_path, capsys, edit):
    path = tmp_path / "aab.json"
    path.write_text(json.dumps({"almost_abelian": {**_AAB, **edit}}))
    _assert_input_error(["aab-kahler", "--in", str(path)], capsys)
    # `pkl verify` reads the same payload from an aab-kahler report
    path.write_text(json.dumps({"almost_abelian": _AAB}))
    code, out = run_cli(["aab-kahler", "--in", str(path), "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    report["almost_abelian"].update(edit)
    path.write_text(json.dumps(report))
    _assert_input_error(["verify", str(path)], capsys)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"lambda": True}, "lambda must be a string or an int, got True"),
        ({"v": ["0", 1.5, "0", "0"]}, "v entry must be a string or an int, got 1.5"),
        ({"A": [[True, "0", "0", "-1"], *_AAB["A"][1:]]}, "A entry must be a string or an int, got True"),
    ],
    ids=["lambda_a_bool", "v_entry_a_float", "A_entry_a_bool"],
)
def test_almost_abelian_scalar_of_another_type_names_its_field(tmp_path, capsys, edit, message):
    path = tmp_path / "aab.json"
    path.write_text(json.dumps({"almost_abelian": {**_AAB, **edit}}))
    assert main(["aab-kahler", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"input error: bad almost_abelian payload: {message}\n"


# A = diag(1, -1, -1, 1) commutes with J and has trace 0 but is not
# antisymmetric: decided by the minimal and characteristic polynomials.
_AAB_POLY = {
    "n": 3,
    "lambda": "0",
    "v": ["1", "0", "0", "2"],
    "A": [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "1"]],
}


def _without_lambda(**extra):
    return {**{k: v for k, v in _AAB.items() if k != "lambda"}, **extra}


@pytest.mark.parametrize(
    "payload",
    [_without_lambda(lamda="1"), _without_lambda(), {**_AAB, "J": []}, _without_lambda(lam="0")],
    ids=["misspelled_lambda", "missing_lambda", "extra_key", "lam_alias"],
)
def test_almost_abelian_payload_keys_are_exact(tmp_path, capsys, payload):
    path = tmp_path / "aab.json"
    path.write_text(json.dumps({"almost_abelian": payload}))
    _assert_input_error(["aab-kahler", "--in", str(path)], capsys)
    path.write_text(json.dumps({"almost_abelian": _AAB}))
    assert main(["aab-kahler", "--in", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report["almost_abelian"] = payload
    path.write_text(json.dumps(report))
    _assert_input_error(["verify", str(path)], capsys)


_DROP = object()


@pytest.mark.parametrize(
    "payload, field, value",
    [
        (_AAB, "absorb", ["9", "0", "0", "0"]),
        (_AAB, "reason", "minimal polynomial not squarefree"),
        (_AAB, "adapted", False),
        (_AAB, "kahler", 1),
        (_AAB, "min_poly", ["0", "1"]),
        (_AAB, "absorb", _DROP),
        (_AAB_POLY, "min_poly", ["0", "1"]),
        (_AAB_POLY, "char_poly_A", ["1", "0", "1"]),
        (_AAB_POLY, "reason", "action matrix similar to lam + antisymmetric block"),
        (_AAB_POLY, "adapted", True),
        (_AAB_POLY, "kahler", True),
        (_AAB_POLY, "absorb", ["0", "0", "0", "0"]),
        (_AAB_POLY, "char_poly_A", _DROP),
    ],
    ids=[
        "adapted-absorb", "adapted-reason", "adapted-adapted", "adapted-kahler_as_int",
        "adapted-min_poly_added", "adapted-absorb_dropped", "poly-min_poly", "poly-char_poly_A",
        "poly-reason", "poly-adapted", "poly-kahler", "poly-absorb_added", "poly-char_poly_A_dropped",
    ],
)
def test_verify_checks_every_aab_kahler_field(tmp_path, capsys, payload, field, value):
    path = tmp_path / "aab.json"
    path.write_text(json.dumps({"almost_abelian": payload}))
    assert main(["aab-kahler", "--in", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert ("absorb" in report) is (payload is _AAB)
    _assert_one_field_fails(tmp_path, capsys, report, field, lambda _: value)


def _assert_one_field_fails(tmp_path, capsys, report, field, edit):
    """`report` verifies, and after report[field] = edit(report) (or its
    deletion, for _DROP) verify prints exactly the FAIL line naming field."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert run_cli(["verify", str(path)], capsys) == (0, _REBUILT)
    value = edit(report)
    if value is _DROP:
        del report[field]
    else:
        report[field] = value
    path.write_text(json.dumps(report))
    code, out = run_cli(["verify", str(path)], capsys)
    assert (code, out) == (1, f"FAIL: stored {field} does not match the recomputation\n")


_KAHLER_KT = ["--omega", "i a1_b1 + i a2_b2"]


@pytest.mark.parametrize(
    "argv, field, edit",
    [
        (["validate", "--catalog", "kt"], "valid", lambda d: False),
        (["classify", "--catalog", "kt"], "nilpotent", lambda d: 1),
        (["classify", "--catalog", "qn8a"], "forbidden_p", lambda d: 2),
        (["classify", "--catalog", "qn8a"], "series_dims", lambda d: [0, 2, 8]),
        (["classify", "--catalog", "iwasawa"], "closed_coframe_count", lambda d: _DROP),
        (["restrict", "--catalog", "kt", *_KAHLER_KT], "omega_h_zero", lambda d: not d["omega_h_zero"]),
        (["restrict", "--catalog", "kt", *_KAHLER_KT], "ideal", lambda d: d["input"]),
        (["restrict", "--catalog", "kt", *_KAHLER_KT], "omega_h", lambda d: _DROP),
        (_T3_QUOTIENT, "descended_closed", lambda d: not d["descended_closed"]),
        (_T3_QUOTIENT, "quotient", lambda d: {"junk": 1}),
        (_T3_QUOTIENT, "junk", lambda d: 1),
        (["obstruct", "--catalog", "iwasawa", "--p", "2"], "obstructed", lambda d: False),
        (["obstruct", "--catalog", "torus3", "--p", "1", "--beta=a1"], "reason", lambda d: "no reason"),
        (["obstruct", "--catalog", "torus3", "--p", "1", "--beta=a1"], "obstructed", lambda d: None),
    ],
    ids=[
        "validate-valid", "classify-nilpotent_as_int", "classify-forbidden_p", "classify-series_dims",
        "classify-closed_coframe_count_dropped", "restrict-omega_h_zero", "restrict-ideal_is_input",
        "restrict-omega_h_dropped", "quotient-descended_closed", "quotient-quotient_junk",
        "quotient-junk_added", "obstruct-search_obstructed", "obstruct-rejected_reason",
        "obstruct-rejected_obstructed",
    ],
)
def test_verify_rebuilds_every_report_field(tmp_path, capsys, argv, field, edit):
    code, out = run_cli([*argv, "--format", "json"], capsys)
    _assert_one_field_fails(tmp_path, capsys, json.loads(out), field, edit)


@pytest.mark.parametrize(
    "argv, edit, field",
    [
        (_KT_FIND, lambda d: d.update(junk=[1]), "field 'junk'"),
        (_KT_FIND, lambda d: d["report"].update(junk=1), "report field 'junk'"),
        (["obstruct", "--catalog", "kt", "--p", "1"], lambda d: d.update(junk=1), "field 'junk'"),
    ],
    ids=["find-junk_added", "find-report_junk_added", "obstruct-junk_added"],
)
def test_verify_rejects_a_field_a_certificate_report_never_holds(tmp_path, capsys, argv, edit, field):
    code, out = run_cli([*argv, "--format", "json"], capsys)
    report = json.loads(out)
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run_cli(["verify", str(path)], capsys) == (0, _CERTIFIED)
    edit(report)
    path.write_text(json.dumps(report))
    assert run_cli(["verify", str(path)], capsys) == (1, f"FAIL: unexpected {field}\n")


_KT_OBSTRUCT = ["obstruct", "--catalog", "kt", "--p", "1"]
_T3_FIND = ["find", "--catalog", "torus3", "--p", "1"]


@pytest.mark.parametrize(
    "argv, edit, line",
    [
        (_KT_FIND, lambda d: d["report"]["stats"].update(closed_dim=999),
         "stats closed_dim is not 3, the dimension of the closed space"),
        (_KT_FIND, lambda d: d["report"]["stats"].update({"pkl.search.seed": "junk"}),
         "stats value 'pkl.search.seed' is not an int"),
        (_KT_FIND, lambda d: d["report"]["stats"].update(witness_rounds=True),
         "stats value 'witness_rounds' is not an int"),
        (_KT_FIND, lambda d: d.update(seed=[1]), "seed is not an int"),
        (_KT_FIND, lambda d: d.update(seed=99), "seed 99 is not the recorded pkl.search.seed 0"),
        (_KT_FIND, lambda d: d["report"]["refutation"].update(junk=1), "unexpected refutation field 'junk'"),
        (_KT_FIND, lambda d: d["report"]["refutation"].update(kind=["witness_family"]),
         "unknown refutation kind ['witness_family']"),
        (_KT_FIND, lambda d: d["report"]["refutation"].update(kind={"witness_family": 1}),
         "unknown refutation kind {'witness_family': 1}"),
        (_T3_FIND, lambda d: d["report"]["found_certificate"].update(junk=1),
         "unexpected found certificate field 'junk'"),
        (_T3_FIND, lambda d: d["report"]["found_certificate"]["gram"].update(junk=1),
         "stored Gram certificate does not match the recomputation"),
        (_T3_FIND, lambda d: d["report"]["found_certificate"]["gram"]["pivots"].__setitem__(0, "2"),
         "stored Gram certificate does not match the recomputation"),
        (_KT_OBSTRUCT, lambda d: d["certificate"].update(junk=1), "unexpected certificate field 'junk'"),
        (_KT_OBSTRUCT, lambda d: d["certificate"].update(kind="empty_cone"),
         "certificate kind 'empty_cone' is not 'obstruction'"),
        (_KT_OBSTRUCT, lambda d: d["certificate"]["terms"][0].update(junk=1),
         "unexpected certificate term field 'junk'"),
    ],
    ids=[
        "find-closed_dim_999", "find-stats_seed_junk", "find-stats_rounds_bool", "find-seed_list",
        "find-seed_not_recorded", "find-refutation_junk", "find-refutation_kind_list",
        "find-refutation_kind_object", "find-found_certificate_junk", "find-gram_junk",
        "find-gram_pivot_changed",
        "obstruct-certificate_junk", "obstruct-certificate_kind", "obstruct-term_junk",
    ],
)
def test_verify_rejects_a_certificate_value_its_checker_never_reads(tmp_path, capsys, argv, edit, line):
    """Each edit leaves what the checker reads intact and adds or changes a
    value it must not accept; verify prints exactly one FAIL line for it."""
    code, out = run_cli([*argv, "--format", "json"], capsys)
    report = json.loads(out)
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run_cli(["verify", str(path)], capsys) == (0, _CERTIFIED)
    edit(report)
    path.write_text(json.dumps(report))
    assert run_cli(["verify", str(path)], capsys) == (1, f"FAIL: {line}\n")


_KT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "kt.p1.json")


def _negate(x):
    return x if x == "0" else (x[1:] if x.startswith("-") else "-" + x)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s["coframe"].__setitem__(1, list(s["coframe"][0])), "coframe rows are linearly dependent"),
        (lambda s: s["coframe"].__setitem__(1, ["0"] * 4), "coframe rows are linearly dependent"),
        (lambda s: s["coframe"].reverse(), "stored structure equations do not match the algebra"),
        (
            lambda s: s.update(J=[[_negate(x) for x in row] for row in s["J"]]),
            "coframe row is not a (1,0)-form for J",
        ),
    ],
    ids=["coframe_rows_duplicated", "coframe_row_zero", "coframe_rows_reversed", "J_negated"],
)
def test_verify_tampered_structure_message(tmp_path, capsys, edit, message):
    with open(_KT_GOLDEN) as fh:
        data = json.load(fh)
    edit(data["input"])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"input error: report does not embed a valid structure: {message}\n"
