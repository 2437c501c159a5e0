"""Command-line front end.

Subcommands: validate, classify, find, obstruct, restrict, quotient,
aab-kahler, verify, catalog.  Exit codes: 0 for a definitive verdict, 2 for
INCONCLUSIVE, 1 for input errors.  `pkl verify` re-checks the certificate of
a `find` or certifying `obstruct` report exactly, and rebuilds every other
report from its stored inputs with the command's own body function.  Each
command imports only the engine modules it runs, in its own body.
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

    Body = tuple[dict, list[str]]  # a report body and its text lines

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


def validate_body(struct: ComplexStructureSpec) -> Body:
    return {"valid": True}, ["VALID: Jacobi, J^2 = -Id and integrability all hold"]


def classify_body(struct: ComplexStructureSpec) -> Body:
    from .cxstruct import ascending_series, closed_coframe_obstruction
    from .liealg import algebra_invariants

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
        report.update(structure_class=series.classification.value, series_dims=series.dims)
        lines.append(f"structure class: {series.classification.value}; series dims {series.dims}")
        if series.classification.value == "NILPOTENT":
            res = closed_coframe_obstruction(struct, series)
            report.update(closed_coframe_count=res.t, forbidden_p=res.forbidden_p)
            forbidden = f"; no ({res.forbidden_p})-Kahler structure" if res.forbidden_p else ""
            lines.append(f"closed coframe elements: {res.t}{forbidden}")
    return report, lines


def obstruct_body(struct: ComplexStructureSpec, p: int, beta: ComplexForm | None) -> Body:
    """Check the candidate beta, or search for one when beta is None."""
    from .exterior import form_to_json, form_to_literal
    from .pkahler import ObstructionRejected, obstruction_check, obstruction_search

    if beta is not None:
        try:
            cert = obstruction_check(struct, p, beta)
        except ObstructionRejected as exc:
            report = {"p": p, "obstructed": False, "beta": form_to_json(beta), "reason": str(exc)}
            return report, [f"REJECTED: {exc}"]
    else:
        cert = obstruction_search(struct, p)
        if cert is None:
            return {"p": p, "obstructed": None}, ["no obstruction found in the monomial ansatz"]
    return {"p": p, "obstructed": True, "certificate": cert.to_json()}, [
        "OBSTRUCTED: no p-Kahler structure exists",
        f"beta: {form_to_literal(cert.beta)}",
        f"(n-p,n-p) part of d beta: {form_to_literal(cert.component)}",
    ]


def restrict_body(struct: ComplexStructureSpec, omega: ComplexForm, alpha: ComplexForm) -> Body:
    from .cxstruct import restrict_to_jinvariant_ideal, struct_to_json
    from .exterior import form_to_json, form_to_literal

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
    return report, [
        f"codimension-2 ideal has complex dimension {res.sub.n}",
        f"omega_h: {form_to_literal(res.omega_h)}",
        f"omega_h closed: {closed_ok}",
    ]


def quotient_body(struct: ComplexStructureSpec, p: int, omega: ComplexForm) -> Body:
    from .cxstruct import b_extension_quotient, struct_to_json
    from .exterior import form_to_json, form_to_literal

    res = b_extension_quotient(struct, omega, p)
    closed_ok = res.quotient.d(res.omega).is_zero()
    report = {
        "p": p,
        "omega": form_to_json(omega),
        "quotient": struct_to_json(res.quotient),
        "descended_form": form_to_json(res.omega),
        "descended_closed": closed_ok,
    }
    return report, [
        f"quotient has complex dimension {res.quotient.n}",
        f"descended form: {form_to_literal(res.omega)}",
        f"descended form closed: {closed_ok}",
    ]


def aab_kahler_body(payload) -> Body:
    from .almost_abelian import almost_abelian_from_json, decision_report

    report = decision_report(almost_abelian_from_json(payload))
    return report, [f"kahler: {report['kahler']}", f"reason: {report['reason']}"]


def cmd_validate(args) -> int:
    struct = load_structure(args)
    emit(args, *validate_body(struct), struct)
    return EXIT_OK


def cmd_classify(args) -> int:
    struct = load_structure(args)
    emit(args, *classify_body(struct), struct)
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
    from .exterior import parse_form

    struct = load_structure(args)
    beta = None if args.beta is None else parse_form(args.beta, struct.n)
    report, lines = obstruct_body(struct, args.p, beta)
    emit(args, report, lines, struct)
    # a rejected candidate decides nothing about the structure
    return EXIT_OK if report["obstructed"] else EXIT_INCONCLUSIVE


def _load_omega(args, struct) -> ComplexForm:
    if not args.omega:
        raise InputError("need --omega FORM (compact literal syntax)")
    from .exterior import parse_form

    return parse_form(args.omega, struct.n)


def cmd_restrict(args) -> int:
    from .exterior import one_form, parse_form

    struct = load_structure(args)
    omega = _load_omega(args, struct)
    if args.alpha:
        alpha = parse_form(args.alpha, struct.n)
    else:
        closed = struct.closed_10_forms()
        if not closed:
            raise InputError("no closed (1,0)-form exists; supply --alpha")
        alpha = one_form(struct.n, closed[0])
    emit(args, *restrict_body(struct, omega, alpha), struct)
    return EXIT_OK


def cmd_quotient(args) -> int:
    struct = load_structure(args)
    emit(args, *quotient_body(struct, args.p, _load_omega(args, struct)), struct)
    return EXIT_OK


def cmd_aab_kahler(args) -> int:
    if not args.infile:
        raise InputError("aab-kahler needs --in FILE with almost_abelian data")
    data = _load_json(args.infile)
    emit(args, *aab_kahler_body(data.get("almost_abelian", data)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.report:
        raise InputError("verify needs a report path")
    data = _load_json(args.report)
    try:
        return _verify(data)
    except KeyError as exc:
        raise InputError(f"report lacks the key {exc}") from exc


# the body of each report without a certificate, and the report fields that hold its other inputs
_REBUILT = {
    "validate": (validate_body, ()),
    "classify": (classify_body, ()),
    "obstruct": (obstruct_body, ("p", "beta")),
    "restrict": (restrict_body, ("omega", "alpha")),
    "quotient": (quotient_body, ("p", "omega")),
}


def _stored_input(data: dict, key: str, n: int):
    if key == "p":
        return json_int(data["p"], "p")
    from .exterior import form_from_json

    # a search report stores no candidate beta
    return None if key == "beta" and key not in data else form_from_json(data[key], n)


def _verify(data: dict) -> int:
    """Re-check a certificate, or rebuild the report body from its stored
    inputs and compare every field outside the tool/command/input envelope."""
    command = data.get("command")
    if command == "aab-kahler":
        body = aab_kahler_body(data["almost_abelian"])[0]
    else:
        from .cxstruct import struct_from_json

        try:
            struct = struct_from_json(data["input"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"report does not embed a valid structure: {exc}") from exc
        if command == "find":
            from .pkahler import verify_report

            return _outcome(verify_report(struct, data["report"]))
        if command == "obstruct" and data.get("obstructed") is True:
            from .pkahler import verify_obstruction

            p = json_int(data["p"], "p")
            return _outcome(verify_obstruction(struct, p, data["certificate"]))
        if not isinstance(command, str) or command not in _REBUILT:
            raise InputError(f"no verifier for command {command!r}")
        make, keys = _REBUILT[command]
        body = make(struct, *(_stored_input(data, key, struct.n) for key in keys))[0]
    want, got = (
        {key: json.dumps(value, sort_keys=True) for key, value in fields.items()
         if key not in ("tool", "command", "input")}
        for fields in (body, data)
    )
    return _outcome([
        f"stored {key} does not match the recomputation"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ])


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
    lines = [f"{name}: {desc}" for name, desc in entries.items()]
    lines.append("parametrized: snn8f1:eps,nu,a,b[:delta] and snn8f2:eps,mu,nu,a,b")
    emit(args, {"entries": entries}, lines)
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

    def command(name, run, help, needs_p=False):
        """A subcommand that reads a structure (--catalog or --in) and emits a report."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--catalog", help="catalog instance name")
        p.add_argument("--in", dest="infile", help="JSON input file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if needs_p:
            p.add_argument("--p", type=int, required=True)
        return p

    command("validate", cmd_validate, "parse and validate an input")
    command("classify", cmd_classify, "structural invariants and class")
    p_find = command("find", cmd_find, "search or refute a p-Kahler structure", needs_p=True)
    p_find.add_argument("--seed", type=int, default=0, help="overridden by PKL_SEED")
    p_find.add_argument("--budget-restarts", type=int, default=200)
    p_find.add_argument("--budget-steps", type=int, default=500)
    p_find.add_argument("--witness-cap", type=int, default=24)
    p_obs = command("obstruct", cmd_obstruct, "check or search a same-sign obstruction", needs_p=True)
    p_obs.add_argument("--beta", help="candidate form in compact literal syntax")
    p_res = command("restrict", cmd_restrict, "restrict to the codimension-2 ideal")
    p_res.add_argument("--omega", help="real (p,p)-form literal", required=False)
    p_res.add_argument("--alpha", help="closed (1,0)-form literal (default: first closed)")
    p_quo = command("quotient", cmd_quotient, "quotient by a central J-invariant plane", needs_p=True)
    p_quo.add_argument("--omega", help="real (p,p)-form literal", required=False)
    p_aab = sub.add_parser("aab-kahler", help="almost-abelian Kahler decision")
    p_aab.add_argument("--in", dest="infile", help="JSON file with almost_abelian data")
    p_aab.add_argument("--format", choices=("text", "json"), default="text")
    p_aab.set_defaults(run=cmd_aab_kahler)
    p_ver = sub.add_parser("verify", help="re-verify a JSON report")
    p_ver.add_argument("report", help="path to a report emitted with --format json")
    p_ver.set_defaults(run=cmd_verify)
    p_cat = sub.add_parser("catalog", help="list named instances")
    p_cat.add_argument("--format", choices=("text", "json"), default="text")
    p_cat.set_defaults(run=cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
