"""Command-line front end.

Subcommands:
  lat info|disc      lattice invariants / discriminant form
  cusp zero|one|sweep   boundary-component reports
  glue enum|roots    isotropic glue enumeration / root systems
  verify table1|example-c12   fixture-driven checks for CI

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal error (a broken invariant of this package, never the input).
Reports are canonical JSON (sorted keys) or Markdown; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cusps, fqf, glue
from .errors import BadParameter, CuspidalError, InternalError
from .lattice import load_lattice

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _md_table(headers, rows) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# lat


def _cmd_lat_info(args) -> int:
    L = load_lattice(args.lattice)
    obj = {
        "rank": L.rank,
        "det": L.det,
        "signature": list(L.signature),
        "even": L.even,
        "gram": L.gram.to_lists(),
    }
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        rows = [(k, obj[k]) for k in ("rank", "det", "signature", "even")]
        _emit(_md_table(["invariant", "value"], rows), args.out)
    return EXIT_OK


def _cmd_lat_disc(args) -> int:
    L = load_lattice(args.lattice)
    form = fqf.discriminant_form(L)
    text = fqf.form_to_json(form) + "\n"
    if args.format == "md":
        obj = json.loads(text)
        rows = list(zip(obj["orders"], obj["q"]))
        text = _md_table(["order", "q"], rows)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cusp


def _case(args) -> cusps.PolarizationCase:
    return cusps.PolarizationCase(args.d, args.case)


def _cmd_cusp_zero(args) -> int:
    case = _case(args)
    report = cusps.zero_dim_report(case, args.mode, args.bound)
    obj = report.to_obj()
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        z = obj["zero_dim"]
        rows = [(case.d, case.embedding, z["formula"], z["enumerated"],
                 " ".join(f"({m},{n})" for m, n in z["reps"]))]
        _emit(_md_table(["d", "case", "formula", "enumerated", "reps"], rows), args.out)
    r = report.nu_result
    if r.formula is not None and r.enumerated is not None and not r.agree:
        return EXIT_VERIFICATION
    return EXIT_OK


def _load_candidates(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise BadParameter(f"candidates file does not parse: {exc}") from None
    if not isinstance(data, list) or not all(
        isinstance(row, dict)
        and isinstance(row.get("roots"), str)
        and _is_int_rows(row.get("glue", []))
        for row in data
    ):
        raise BadParameter(
            'candidates file must be a list of objects with a "roots" string '
            'and optional "glue" rows of integers'
        )
    out = []
    for row in data:
        out.append(
            cusps.Candidate(
                row["roots"],
                row.get("niemeier"),
                tuple(tuple(g) for g in row["glue"]) if row.get("glue") else None,
            )
        )
    return out


def _is_int_rows(rows) -> bool:
    return isinstance(rows, list) and all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in rows
    )


def _cmd_cusp_one(args) -> int:
    case = _case(args)
    candidates = _load_candidates(args.candidates) if args.candidates else None
    report = cusps.full_report(case, candidates, args.bound)
    obj = report.to_obj()
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        rows = [
            (r["roots"], r["genus_ok"], r["roots_ok"], r["o_ae"], r["im_tau"],
             r["classes"])
            for r in obj["one_dim"]["candidates"]
        ]
        text = _md_table(["R(E)", "genus_ok", "roots_ok", "|O(A_E)|",
                          "|Im tau| (conditional)", "classes"], rows)
        text += f"\ntotal (conditional): {obj['one_dim']['total']}\n"
        _emit(text, args.out)
    bad = [r for r in report.one_dim if not r.ok]
    return EXIT_VERIFICATION if bad else EXIT_OK


def _parse_range(text: str):
    lo, _, hi = text.partition("..")
    if not _:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise CuspidalError(f"bad range {text!r}") from exc
    if hi < lo:
        raise CuspidalError(f"empty range {text!r}")
    return lo, hi


def _cmd_cusp_sweep(args) -> int:
    lo, hi = _parse_range(args.d)
    ds = [
        d
        for d in range(lo, hi + 1)
        if args.case == "split" or d % 4 == 3
    ]

    def run_one(d):
        case = cusps.PolarizationCase(d, args.case)
        r = cusps.nu(case, "both", args.bound)
        return {
            "d": d,
            "embedding": args.case,
            "formula": r.formula,
            "enumerated": r.enumerated,
            "agree": r.agree,
        }

    rows = [run_one(d) for d in ds]
    mismatches = [r for r in rows if not r["agree"]]
    if args.format == "json":
        _emit(_dump_json({"rows": rows, "mismatches": len(mismatches)}), args.out)
    else:
        table = [
            (r["d"], r["formula"], r["enumerated"], "" if r["agree"] else "MISMATCH")
            for r in rows
        ]
        _emit(_md_table(["d", "formula", "enumerated", ""], table), args.out)
    return EXIT_VERIFICATION if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# glue


def _cmd_glue_enum(args) -> int:
    if args.order is not None and args.order < 1:
        raise BadParameter(f"--order must be a positive integer, got {args.order}")
    gd0 = glue.make_glue(args.roots)
    subs = fqf.isotropic_subgroups(gd0.disc, args.bound)
    if args.order is not None:
        subs = [s for s in subs if s.order == args.order]
    rows = []
    for s in subs:
        gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
        over = glue.overlattice(gd)
        quotient = fqf.perp_quotient(gd0.disc, s)
        row = {
            "generators": [list(g) for g in s.generators],
            "order": s.order,
            "overlattice_det": over.lattice.det,
            "quotient_orders": list(quotient.orders),
            "quotient_q": [str(x) for x in quotient.qdiag],
        }
        if args.roots_of_overlattice:
            row["roots"] = glue.root_system(over.lattice).spec_string()
        rows.append(row)
    obj = {"base": args.roots, "base_det": gd0.base.det, "glues": rows}
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        table = [
            (r["order"], r["generators"], r["overlattice_det"],
             r.get("roots", "")) for r in rows
        ]
        _emit(_md_table(["|H|", "generators", "det", "roots"], table), args.out)
    return EXIT_OK


def _cmd_glue_roots(args) -> int:
    L = load_lattice(args.lattice)
    rs = glue.root_system(L)
    obj = {"roots": rs.spec_string(), "total_roots": rs.total_roots,
           "components": [list(c) for c in rs.components]}
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        _emit(f"{rs.spec_string()} ({rs.total_roots} roots)\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_table1(args) -> int:
    case = cusps.PolarizationCase(1, "split")
    rows = cusps.one_dim_cusps(case, bound=args.bound)
    ok = all(r.ok for r in rows)
    if args.format == "json":
        obj = {
            "rows": [
                {**r.to_obj(r.candidate.roots), "niemeier": r.candidate.niemeier,
                 "computed_roots": r.computed_roots}
                for r in rows
            ],
            "all_ok": ok,
            "total_classes_conditional": cusps.total_classes(rows),
        }
        _emit(_dump_json(obj), args.out)
    else:
        table = [
            (
                r.candidate.roots,
                r.candidate.niemeier,
                "yes" if r.genus_ok else "NO",
                "yes" if r.roots_ok else "NO",
                r.o_ae,
                r.im_tau,
                r.classes,
            )
            for r in rows
        ]
        text = _md_table(
            ["R(E)", "R(N)", "genus", "roots", "|O(A_E)|",
             "|Im tau| (conditional)", "classes"],
            table,
        )
        text += f"\nrows passing: {sum(r.ok for r in rows)}/13; "
        text += f"total classes (conditional): {cusps.total_classes(rows)}\n"
        _emit(text, args.out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify_example(args) -> int:
    data = cusps.example_c12()
    ok = cusps.example_c12_ok(data)
    obj = {k: _jsonable(v) for k, v in data.items()}
    obj["all_ok"] = ok
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        _emit(_md_table(["check", "value"], sorted(obj.items())), args.out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _jsonable(v):
    from fractions import Fraction

    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cuspidal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, default_format="json"):
        sp.add_argument("--format", choices=("json", "md"), default=default_format)
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.add_argument("--bound", type=int, default=fqf.ENUM_BOUND,
                        help="enumeration cap for brute-force scans")

    lat = sub.add_parser("lat", help="lattice utilities").add_subparsers(
        dest="verb", required=True
    )
    sp = lat.add_parser("info", help="rank, determinant, signature, parity")
    sp.add_argument("lattice", help="builtin name, JSON, or path")
    common(sp)
    sp.set_defaults(func=_cmd_lat_info)
    sp = lat.add_parser("disc", help="discriminant quadratic form")
    sp.add_argument("lattice")
    common(sp)
    sp.set_defaults(func=_cmd_lat_disc)

    cusp = sub.add_parser("cusp", help="boundary enumeration").add_subparsers(
        dest="verb", required=True
    )
    sp = cusp.add_parser("zero", help="zero-dimensional boundary components")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--case", choices=("split", "nonsplit"), default="split")
    sp.add_argument("--mode", choices=("formula", "enumerate", "both"), default="both")
    common(sp)
    sp.set_defaults(func=_cmd_cusp_zero)
    sp = cusp.add_parser("one", help="one-dimensional boundary components")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--case", choices=("split", "nonsplit"), default="split")
    sp.add_argument("--candidates", default=None,
                    help="JSON file of candidate root decompositions")
    common(sp)
    sp.set_defaults(func=_cmd_cusp_one)
    sp = cusp.add_parser("sweep", help="formula vs enumeration over a d range")
    sp.add_argument("--d", required=True, help="range, e.g. 1..50")
    sp.add_argument("--case", choices=("split", "nonsplit"), default="split")
    common(sp)
    sp.set_defaults(func=_cmd_cusp_sweep)

    gl = sub.add_parser("glue", help="overlattice utilities").add_subparsers(
        dest="verb", required=True
    )
    sp = gl.add_parser("enum", help="enumerate isotropic glue subgroups")
    sp.add_argument("--roots", required=True, help='root spec, e.g. "A3+A15"')
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--roots-of-overlattice", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_glue_enum)
    sp = gl.add_parser("roots", help="root system of a negative definite lattice")
    sp.add_argument("lattice")
    common(sp)
    sp.set_defaults(func=_cmd_glue_roots)

    ver = sub.add_parser("verify", help="fixture-driven paper checks").add_subparsers(
        dest="verb", required=True
    )
    sp = ver.add_parser("table1", help="the 13-row genus table")
    common(sp, default_format="md")
    sp.set_defaults(func=_cmd_verify_table1)
    sp = ver.add_parser("example-c12", help="the cubic-scroll rank-2 fixture")
    common(sp, default_format="md")
    sp.set_defaults(func=_cmd_verify_example)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CuspidalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
