"""Command-line front end.

Subcommands: validate, classify, find, obstruct, restrict, quotient,
aab-kahler, verify, catalog.  Exit codes: 0 for a definitive verdict
(FOUND / REFUTED / true / false / valid certificate), 2 for INCONCLUSIVE,
1 for input errors.  JSON reports embed full certificates so `pkl verify`
can re-check them with exact arithmetic only.  Each command imports the
engine modules it runs in its own body, so a cold start loads no others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .scalars import json_int

if TYPE_CHECKING:
    from .cxstruct import ComplexStructureSpec
    from .exterior import ComplexForm
    from .positivity import SearchBudget

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    return data


def load_structure(args) -> ComplexStructureSpec:
    if args.catalog:
        from .catalog import named_example

        try:
            return named_example(args.catalog)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
    if not args.infile:
        raise InputError("need --catalog NAME or --in FILE")
    data = _load_json(args.infile)
    from .cxstruct import struct_from_payload

    try:
        return struct_from_payload(data)
    except (ValueError, KeyError) as exc:
        raise InputError(str(exc)) from exc


def budget_from(args) -> SearchBudget:
    from .positivity import SearchBudget

    seed = args.seed
    env_seed = os.environ.get("PKL_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InputError(f"PKL_SEED must be an integer, got {env_seed!r}") from None
    return SearchBudget(
        restarts=args.budget_restarts,
        steps=args.budget_steps,
        seed=seed,
        witness_cap=args.witness_cap,
    )


def emit(
    args, report: dict, text_lines: list[str], struct: ComplexStructureSpec | None = None
) -> None:
    """Write the report, under the tool/command/input envelope, or its text lines."""
    if args.format == "json":
        report = {"tool": "pkl", "command": args.command, **report}
        if struct is not None:
            from .cxstruct import struct_to_json

            report["input"] = struct_to_json(struct)
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def cmd_validate(args) -> int:
    struct = load_structure(args)
    emit(args, {"valid": True}, ["VALID: Jacobi, J^2 = -Id and integrability all hold"], struct)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .cxstruct import ascending_series, closed_coframe_obstruction
    from .liealg import algebra_invariants

    struct = load_structure(args)
    inv = algebra_invariants(struct.g)
    lines = [
        f"real dimension {struct.g.dim}, complex dimension {struct.n}",
        f"nilpotent: {inv.is_nilpotent}, unimodular: {inv.is_unimodular}",
        f"center dimension: {len(inv.center_basis)}",
        f"lower central series dims: {inv.lower_central_series_dims}",
        f"almost abelian: {inv.abelian_codim1_ideal is not None}",
    ]
    report = {
        "nilpotent": inv.is_nilpotent,
        "unimodular": inv.is_unimodular,
        "center_dim": len(inv.center_basis),
        "lcs_dims": inv.lower_central_series_dims,
        "almost_abelian": inv.abelian_codim1_ideal is not None,
    }
    if inv.is_nilpotent:
        series = ascending_series(struct)
        report["structure_class"] = series.classification.value
        report["series_dims"] = series.dims
        lines.append(
            f"structure class: {series.classification.value}; series dims {series.dims}"
        )
        if series.classification.value == "NILPOTENT":
            res = closed_coframe_obstruction(struct, series)
            report["closed_coframe_count"] = res.t
            report["forbidden_p"] = res.forbidden_p
            lines.append(
                f"closed coframe elements: {res.t}; no ({res.forbidden_p})-Kahler structure"
                if res.forbidden_p
                else f"closed coframe elements: {res.t}"
            )
    emit(args, report, lines, struct)
    return EXIT_OK


def cmd_find(args) -> int:
    from .exterior import form_to_literal
    from .pkahler import PKVerdict, find_pkahler

    struct = load_structure(args)
    budget = budget_from(args)
    rep = find_pkahler(struct, args.p, budget)
    report = {"seed": budget.seed, "report": rep.to_json()}
    lines = [f"verdict: {rep.verdict.value} (p = {args.p})"]
    if rep.verdict == PKVerdict.FOUND:
        lines.append(f"form: {form_to_literal(rep.found_form)}")
    elif rep.verdict == PKVerdict.REFUTED:
        kind = rep.refutation.to_json()["kind"]
        lines.append(f"refutation: {kind}")
        if kind == "obstruction":
            lines.append(f"beta: {form_to_literal(rep.refutation.beta)}")
            lines.append(f"component: {form_to_literal(rep.refutation.component)}")
    emit(args, report, lines, struct)
    return EXIT_OK if rep.verdict != PKVerdict.INCONCLUSIVE else EXIT_INCONCLUSIVE


def cmd_obstruct(args) -> int:
    from .exterior import form_to_literal, parse_form
    from .pkahler import ObstructionRejected, obstruction_check, obstruction_search

    struct = load_structure(args)
    if args.beta:
        beta = parse_form(args.beta, struct.n)
        try:
            cert = obstruction_check(struct, args.p, beta)
        except ObstructionRejected as exc:
            report = {"p": args.p, "obstructed": False, "reason": str(exc)}
            emit(args, report, [f"REJECTED: {exc}"], struct)
            # a rejected candidate decides nothing about the structure
            return EXIT_INCONCLUSIVE
    else:
        cert = obstruction_search(struct, args.p)
        if cert is None:
            report = {"p": args.p, "obstructed": None}
            emit(args, report, ["no obstruction found in the monomial ansatz"], struct)
            return EXIT_INCONCLUSIVE
    report = {"p": args.p, "obstructed": True, "certificate": cert.to_json()}
    emit(
        args,
        report,
        [
            "OBSTRUCTED: no p-Kahler structure exists",
            f"beta: {form_to_literal(cert.beta)}",
            f"(n-p,n-p) part of d beta: {form_to_literal(cert.component)}",
        ],
        struct,
    )
    return EXIT_OK


def _load_omega(args, struct) -> ComplexForm:
    if not args.omega:
        raise InputError("need --omega FORM (compact literal syntax)")
    from .exterior import parse_form

    return parse_form(args.omega, struct.n)


def cmd_restrict(args) -> int:
    from .cxstruct import restrict_to_jinvariant_ideal, struct_to_json
    from .exterior import form_to_json, form_to_literal, one_form, parse_form

    struct = load_structure(args)
    omega = _load_omega(args, struct)
    if args.alpha:
        alpha = parse_form(args.alpha, struct.n)
    else:
        closed = struct.closed_10_forms()
        if not closed:
            raise InputError("no closed (1,0)-form exists; supply --alpha")
        alpha = one_form(struct.n, closed[0])
    res = restrict_to_jinvariant_ideal(struct, omega, alpha)
    closed_ok = res.sub.d(res.omega_h).is_zero()
    report = {
        "alpha": form_to_json(alpha),
        "omega": form_to_json(omega),
        "ideal": struct_to_json(res.sub),
        "omega_h": form_to_json(res.omega_h),
        "omega_h_closed": closed_ok,
        "omega_h_zero": res.omega_h.is_zero(),
    }
    emit(
        args,
        report,
        [
            f"codimension-2 ideal has complex dimension {res.sub.n}",
            f"omega_h: {form_to_literal(res.omega_h)}",
            f"omega_h closed: {closed_ok}",
        ],
        struct,
    )
    return EXIT_OK


def cmd_quotient(args) -> int:
    from .cxstruct import b_extension_quotient, struct_to_json
    from .exterior import form_to_json, form_to_literal

    struct = load_structure(args)
    omega = _load_omega(args, struct)
    res = b_extension_quotient(struct, omega, args.p)
    closed_ok = res.quotient.d(res.omega).is_zero()
    report = {
        "p": args.p,
        "omega": form_to_json(omega),
        "quotient": struct_to_json(res.quotient),
        "descended_form": form_to_json(res.omega),
        "descended_closed": closed_ok,
    }
    emit(
        args,
        report,
        [
            f"quotient has complex dimension {res.quotient.n}",
            f"descended form: {form_to_literal(res.omega)}",
            f"descended form closed: {closed_ok}",
        ],
        struct,
    )
    return EXIT_OK


def cmd_aab_kahler(args) -> int:
    from .almost_abelian import almost_abelian_from_json, decision_report

    if not args.infile:
        raise InputError("aab-kahler needs --in FILE with almost_abelian data")
    data = _load_json(args.infile)
    report = decision_report(almost_abelian_from_json(data.get("almost_abelian", data)))
    emit(args, report, [f"kahler: {report['kahler']}", f"reason: {report['reason']}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.report:
        raise InputError("verify needs a report path")
    data = _load_json(args.report)
    try:
        return _verify(data)
    except KeyError as exc:
        raise InputError(f"report lacks the key {exc}") from exc


def _verify(data: dict) -> int:
    command = data.get("command")
    if command == "aab-kahler":
        from .almost_abelian import almost_abelian_from_json, decision_report

        body = decision_report(almost_abelian_from_json(data["almost_abelian"]))
        want = {key: json.dumps(value, sort_keys=True) for key, value in body.items()}
        got = {
            key: json.dumps(value, sort_keys=True)
            for key, value in data.items()
            if key not in ("tool", "command")
        }
        return _outcome(
            [
                f"stored {key} does not match the recomputation"
                for key in sorted(want.keys() | got.keys())
                if want.get(key) != got.get(key)
            ]
        )
    from .cxstruct import b_extension_quotient, restrict_to_jinvariant_ideal, struct_from_json
    from .exterior import form_from_json, form_to_json
    from .pkahler import verify_obstruction, verify_report

    try:
        struct = struct_from_json(data["input"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"report does not embed a valid structure: {exc}") from exc
    failures: list[str] = []
    if command == "find":
        failures = verify_report(struct, data["report"])
    elif command == "obstruct" and data.get("obstructed"):
        failures = verify_obstruction(struct, json_int(data["p"], "p"), data["certificate"])
    elif command == "restrict":
        omega = form_from_json(data["omega"], struct.n)
        alpha = form_from_json(data["alpha"], struct.n)
        res = restrict_to_jinvariant_ideal(struct, omega, alpha)
        if form_to_json(res.omega_h) != data["omega_h"]:
            failures.append("restricted form does not match")
        if res.sub.d(res.omega_h).is_zero() != data.get("omega_h_closed"):
            failures.append("closedness flag does not match")
    elif command == "quotient":
        omega = form_from_json(data["omega"], struct.n)
        res = b_extension_quotient(struct, omega, json_int(data["p"], "p"))
        if form_to_json(res.omega) != data["descended_form"]:
            failures.append("descended form does not match")
    elif command == "validate":
        pass  # reconstruction above already re-validated everything
    else:
        raise InputError(f"no verifier for command {command!r}")
    return _outcome(failures)


def _outcome(failures: list[str]) -> int:
    for f in failures:
        sys.stdout.write(f"FAIL: {f}\n")
    if failures:
        return EXIT_INPUT
    sys.stdout.write("certificate verified (exact arithmetic)\n")
    return EXIT_OK


def cmd_catalog(args) -> int:
    from .catalog import registry

    entries = registry()
    report = {"entries": entries}
    lines = [f"{name}: {desc}" for name, desc in entries.items()]
    lines.append("parametrized: snn8f1:eps,nu,a,b[:delta] and snn8f2:eps,mu,nu,a,b")
    emit(args, report, lines)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, since 2 means INCONCLUSIVE here."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pkl",
        description="decide, certify or refute p-Kahler structures on Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, needs_p=False):
        """A subcommand that reads a structure (--catalog or --in) and emits a report."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--catalog", help="catalog instance name")
        p.add_argument("--in", dest="infile", help="JSON input file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if needs_p:
            p.add_argument("--p", type=int, required=True)
        return p

    command("validate", "parse and validate an input")
    command("classify", "structural invariants and class")
    p_find = command("find", "search or refute a p-Kahler structure", needs_p=True)
    p_find.add_argument("--seed", type=int, default=0, help="overridden by PKL_SEED")
    p_find.add_argument("--budget-restarts", type=int, default=200)
    p_find.add_argument("--budget-steps", type=int, default=500)
    p_find.add_argument("--witness-cap", type=int, default=24)
    p_obs = command("obstruct", "check or search a same-sign obstruction", needs_p=True)
    p_obs.add_argument("--beta", help="candidate form in compact literal syntax")
    p_res = command("restrict", "restrict to the codimension-2 ideal")
    p_res.add_argument("--omega", help="real (p,p)-form literal", required=False)
    p_res.add_argument("--alpha", help="closed (1,0)-form literal (default: first closed)")
    p_quo = command("quotient", "quotient by a central J-invariant plane", needs_p=True)
    p_quo.add_argument("--omega", help="real (p,p)-form literal", required=False)
    p_aab = sub.add_parser("aab-kahler", help="almost-abelian Kahler decision")
    p_aab.add_argument("--in", dest="infile", help="JSON file with almost_abelian data")
    p_aab.add_argument("--format", choices=("text", "json"), default="text")
    p_ver = sub.add_parser("verify", help="re-verify a JSON report")
    p_ver.add_argument("report", help="path to a report emitted with --format json")
    p_cat = sub.add_parser("catalog", help="list named instances")
    p_cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "find": cmd_find,
    "obstruct": cmd_obstruct,
    "restrict": cmd_restrict,
    "quotient": cmd_quotient,
    "aab-kahler": cmd_aab_kahler,
    "verify": cmd_verify,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
