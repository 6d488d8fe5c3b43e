"""Command-line interface: enumeration, catalog checks, modular scans,
Groebner certificates and form queries, with text or JSON reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import catalog as catalog_mod
from . import claims, forms, groebner, modular
from .enumeration import Search
from .mat2 import parse_mat2, parse_rational

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, payload: dict, lines) -> None:
    if args.format == "json":
        payload = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_checks(args, command: str, results: list[catalog_mod.CheckResult],
                 summary: bool = False) -> int:
    """Report named checks as JSON or as one PASS/FAIL line each.

    ``summary`` drops the details from the text and ends it with a total.
    Returns the exit status: 0 if every check passed, else 1.
    """
    failed = [r.name for r in results if not r.ok]
    payload = {
        "command": command,
        "checks": [r.to_dict() for r in results],
        "ok": not failed,
    }
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.name}"
        + (f"  ({r.detail})" if r.detail and not summary else "")
        for r in results
    ]
    if summary:
        lines.append(
            f"{len(failed)} failure(s): {', '.join(failed)}" if failed
            else "all checks passed"
        )
    _emit(args, payload, lines)
    return 1 if failed else 0


def _cmd_enumerate(args) -> int:
    lines = []
    payload: dict = {"command": "enumerate"}
    search = Search()
    cat = catalog_mod.generate_catalog(search)
    if args.raw_count:
        payload["raw_count"] = len(search.solutions)
        lines.append(f"raw solutions: {len(search.solutions)}")
    payload["minimal_count"] = len(cat.entries)
    payload["counts_by_length"] = {
        str(k): len(cat.by_length(k)) for k in catalog_mod.EXPECTED_COUNTS
    }
    lines.append(f"minimal coverings: {len(cat.entries)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(catalog_mod.serialize(cat))
        payload["out"] = args.out
        lines.append(f"catalog written to {args.out}")
    _emit(args, payload, lines)
    return 0


def _cmd_verify_catalog(args) -> int:
    if not args.infile:
        return _emit_checks(args, "verify-catalog", claims.catalog_checks())
    with open(args.infile) as fh:
        cat = catalog_mod.parse(fh.read(catalog_mod.MAX_CATALOG_CHARS + 1))
    return _emit_checks(args, "verify-catalog", catalog_mod.verify_catalog(cat))


def _cmd_verify_modular(args) -> int:
    reports = [
        r for r in modular.run_all_scans() if args.modulus in (None, r.modulus)
    ]
    payload = {
        "command": "verify-modular",
        "reports": [r.to_dict() for r in reports],
        "ok": all(r.ok for r in reports),
    }
    lines = []
    for r in reports:
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.name} mod {r.modulus}")
        for clause, ok in r.clauses.items():
            lines.append(f"     {'ok  ' if ok else 'FAIL'} {clause}")
    _emit(args, payload, lines)
    return 0 if payload["ok"] else 1


def _cmd_verify_groebner(args) -> int:
    verdicts = groebner.verify_all(groebner.certificate_bases())
    payload = {
        "command": "verify-groebner",
        "verdicts": [v.to_dict() for v in verdicts],
        "ok": all(v.ok for v in verdicts),
    }
    lines = [
        f"{'PASS' if v.ok else 'FAIL'} {{{', '.join(v.elements)}}}: "
        f"3 in ideal = {v.contains_3}"
        + ("" if v.norm_form_in_ideal is None
           else f" extra={{'norm_form_in_ideal': {v.norm_form_in_ideal}}}")
        for v in verdicts
    ]
    _emit(args, payload, lines)
    return 0 if payload["ok"] else 1


def _parse_form(text: str) -> forms.BinaryForm:
    return forms.BinaryForm.of(*map(parse_rational, text.split(",")))


def _cmd_form(args) -> int:
    if args.action == "check":
        f = _parse_form(args.coeffs)
        t = parse_mat2(args.conj)
        verdict = forms.extraordinary_by_C3(f, t, args.variant)
        payload = {
            "command": "form-check",
            "form": str(f),
            "extraordinary": verdict,
        }
        lines = [f"form: {f}", f"extraordinary: {verdict}"]
        _emit(args, payload, lines)
        return 0
    f = _parse_form(args.f)
    g = _parse_form(args.g)
    report = forms.cross_value_check(f, g, args.n, args.m)
    payload = {"command": "form-compare", **report.to_dict()}
    lines = [
        f"boxes: |x|,|y| <= {report.n} vs {report.m}",
        f"unmatched first-form values: {len(report.unmatched_f)}",
        f"unmatched second-form values: {len(report.unmatched_g)}",
        f"{'PASS' if report.ok else 'MISMATCH'}",
    ]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def _cmd_verify_all(args) -> int:
    return _emit_checks(args, "verify-all", claims.checks(), summary=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="latcover")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate the minimal coverings")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--raw-count", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-catalog", help="run the catalog checks")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("verify-modular", help="run the residue scans")
    p.add_argument("--modulus", type=int, choices=(3, 4, 5, 9))
    p.set_defaults(func=_cmd_verify_modular)

    p = sub.add_parser(
        "verify-groebner", help="run the ideal-membership certificates"
    )
    p.set_defaults(func=_cmd_verify_groebner)

    p = sub.add_parser("form", help="binary form queries")
    formsub = p.add_subparsers(dest="action", required=True)
    pc = formsub.add_parser("check")
    pc.add_argument("--coeffs", required=True)
    pc.add_argument("--conj", default="1,0;0,1")
    pc.add_argument("--variant", choices=("d3", "d6"), default="d3")
    pc.set_defaults(func=_cmd_form)
    pp = formsub.add_parser("compare")
    pp.add_argument("--f", required=True)
    pp.add_argument("--g", required=True)
    pp.add_argument("--n", type=int, default=10)
    pp.add_argument("--m", type=int, default=None)
    pp.set_defaults(func=_cmd_form)

    p = sub.add_parser("verify-all", help="run every verification")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
