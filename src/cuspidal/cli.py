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

import sys
from collections import namedtuple
from itertools import chain
from types import SimpleNamespace

from . import cusps, fqf, glue
from .errors import BadParameter, CuspidalError, InternalError
from .lattice import load_lattice

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte, for
    the values commands print: dicts with str keys, lists and tuples, ints,
    bools, None and strs.  Any other key or value raises TypeError."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """The JSON text of ``obj`` whose line starts with ``newline``, the line
    break and the indent of its level; a list of ints is joined in one step,
    and a list of nonempty int lists of one length fills one template."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        types = set(map(type, obj))
        widths = set(map(len, obj)) if types <= {list, tuple} else ()
        if types == {int}:
            items = map(int.__repr__, obj)
        elif len(widths) == 1 and set(map(type, chain.from_iterable(obj))) == {int}:
            row = inner + "  "
            template = "[" + row + ("," + row).join(["%d"] * widths.pop()) + inner + "]"
            items = [template % tuple(x) for x in obj]
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("keys must be str")
        inner = newline + "  "
        items = [_json_string(key) + ": " + _json_text(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_string(text: str) -> str:
    """A JSON string literal: printable ASCII without quote or backslash as it
    is, anything else escaped by ``json``."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    import json

    return json.dumps(text)


def _emit(text, out_path: str | None) -> None:
    """Write ``text``, a str or an iterable of strs, to ``out_path`` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _md_cell(x) -> str:
    """A Markdown table cell: None (JSON's null) is empty and ``|`` is escaped."""
    return "" if x is None else str(x).replace("|", "\\|")


def _md_table(headers, rows) -> str:
    """A GitHub-flavoured Markdown table; every header and cell is formatted
    by ``_md_cell``."""
    out = ["| " + " | ".join(map(_md_cell, headers)) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(map(_md_cell, row)) + " |")
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
        "gram": L.gram,
    }
    if args.format == "json":
        _emit(_dump_json(obj), args.out)
    else:
        rows = [(k, obj[k]) for k in ("rank", "det", "signature", "even")]
        _emit(_md_table(["invariant", "value"], rows), args.out)
    return EXIT_OK


def _cmd_lat_disc(args) -> int:
    obj = fqf.form_to_obj(fqf.discriminant_form(load_lattice(args.lattice))[0])
    if args.format == "json":
        import json

        text = json.dumps(obj, sort_keys=True) + "\n"
    else:
        text = _md_table(["order", "q"], zip(obj["orders"], obj["q"]))
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cusp


def _case(args) -> cusps.PolarizationCase:
    return cusps.PolarizationCase(args.d, args.case)


def _zero_obj(case, result, reps) -> dict:
    """The printed zero-dimensional report of ``case``: ``result``'s two values
    of nu and the labels (m, n) of the representatives, int pairs that
    ``_dump_json`` writes as lists."""
    return {"case": {"d": case.d, "embedding": case.embedding},
            "zero_dim": {"formula": result.formula, "enumerated": result.enumerated,
                         "reps": reps}}


def _row_obj(row, table1: bool) -> dict:
    """The printed one-dimensional row: ``cusp one`` lists it under its
    computed roots (the declared ones when it has none), ``verify table1``
    under the declared roots, beside R(N) and the computed roots."""
    cand = row.candidate
    listed = {"niemeier": cand.niemeier, "computed_roots": row.computed_roots} if table1 else {}
    return {"roots": cand.roots if table1 else row.computed_roots or cand.roots,
            "genus_ok": row.genus_ok, "roots_ok": row.roots_ok, "o_ae": row.o_ae,
            "im_tau": row.im_tau, "classes": row.classes, "conditional": True, **listed}


def _cmd_cusp_zero(args) -> int:
    case = _case(args)
    result, reps = cusps.zero_dim_report(case, args.bound)
    # both values are computed and the representatives certified under every
    # mode; the value not asked for prints as null
    if args.mode == "formula":
        result = result._replace(enumerated=None)
    elif args.mode == "enumerate":
        result = result._replace(formula=None)
    if args.format == "json":
        _emit(_dump_json(_zero_obj(case, result, reps)), args.out)
    else:
        rows = [(case.d, case.embedding, result.formula, result.enumerated,
                 " ".join(f"({m},{n})" for m, n in reps))]
        _emit(_md_table(["d", "case", "formula", "enumerated", "reps"], rows), args.out)
    # agree is None unless both values are shown, so only --mode both exits 1
    return EXIT_VERIFICATION if result.agree is False else EXIT_OK


def _load_candidates(path: str):
    import json

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
    # one_dim_cusps refuses a d that is not square-free before any
    # zero-dimensional representative is listed
    rows = cusps.one_dim_cusps(case, candidates, args.bound)
    result, reps = cusps.zero_dim_report(case, args.bound)
    printed = [_row_obj(r, table1=False) for r in rows]
    total = cusps.total_classes(rows)
    if args.format == "json":
        obj = {**_zero_obj(case, result, reps),
               "one_dim": {"candidates": printed, "total": total}}
        _emit(_dump_json(obj), args.out)
    else:
        table = [
            (r["roots"], r["genus_ok"], r["roots_ok"], r["o_ae"], r["im_tau"],
             r["classes"])
            for r in printed
        ]
        text = _md_table(["R(E)", "genus_ok", "roots_ok", "|O(A_E)|",
                          "|Im tau| (conditional)", "classes"], table)
        text += f"\ntotal (conditional): {total}\n"
        _emit(text, args.out)
    return EXIT_OK if all(r.ok for r in rows) else EXIT_VERIFICATION


def _parse_range(text: str):
    lo, _, hi = text.partition("..")
    if not _:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise BadParameter(f"bad range {text!r}") from exc
    if hi < lo:
        raise BadParameter(f"empty range {text!r}")
    return lo, hi


def _cmd_cusp_sweep(args) -> int:
    lo, hi = _parse_range(args.d)
    if hi - lo + 1 > args.bound:
        # refused before any d is computed: the rows alone can exhaust memory
        raise BadParameter(f"sweep range {args.d!r} of {hi - lo + 1} values exceeds "
                           f"enumeration bound {args.bound}")
    ds = range(lo, hi + 1) if args.case == "split" else range(lo + (3 - lo) % 4, hi + 1, 4)
    if not ds:
        raise BadParameter(f"sweep range {args.d!r} holds no d = 3 mod 4, "
                           "which the nonsplit embedding needs")
    # rows of ints (d, formula, enumerated), written one by one after the
    # mismatches, which sorted keys print first
    rows = []
    for d in ds:
        r = cusps.nu(cusps.PolarizationCase(d, args.case), args.bound)
        rows.append((d, r.formula, r.enumerated))
    mismatches = sum(1 for _, formula, enumerated in rows if formula != enumerated)
    if args.format == "json":
        row = ('\n    {\n      "agree": %s,\n      "d": %d,\n      "embedding": '
               + _json_string(args.case)
               + ',\n      "enumerated": %d,\n      "formula": %d\n    }')
        chunks = chain([f'{{\n  "mismatches": {mismatches},\n  "rows": ['],
                       (("," if i else "") + row % ("true" if f == e else "false", d, e, f)
                        for i, (d, f, e) in enumerate(rows)),
                       ["\n  ]\n}\n"])
    else:
        chunks = chain([_md_table(["d", "formula", "enumerated", ""], [])],
                       (f"| {d} | {f} | {e} | {'' if f == e else 'MISMATCH'} |\n"
                        for d, f, e in rows))
    _emit(chunks, args.out)
    return EXIT_VERIFICATION if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# glue


def _cmd_glue_enum(args) -> int:
    if args.order is not None and args.order < 1:
        raise BadParameter(f"--order must be a positive integer, got {args.order}")
    gd = glue.make_glue(args.roots)
    subs = fqf.isotropic_subgroups(gd.disc, args.bound)
    if args.order is not None:
        subs = [s for s in subs if s.order == args.order]
    rows = []
    for s in subs:
        over = glue.overlattice(gd, s)
        quotient, _ = fqf.perp_quotient(gd.disc, s)
        row = {
            "generators": [list(g) for g in s.generators],
            "order": s.order,
            "overlattice_det": over.det,
            "quotient_orders": list(quotient.orders),
            "quotient_q": fqf.q_strings(quotient),
        }
        if args.roots_of_overlattice:
            row["roots"] = glue.root_system(over, args.bound).spec_string()
        rows.append(row)
    obj = {"base": args.roots, "base_det": gd.base.det, "glues": rows}
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
    rs = glue.root_system(L, args.bound)
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
            "rows": [_row_obj(r, table1=True) for r in rows],
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
    from . import claims

    data = claims.example_c12(args.bound)
    ok = claims.example_c12_ok(data)
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

# The CLI grammar, declared once.  ``build_parser`` reads it to parse the
# exact forms itself; ``_argparse_parser`` builds from it, in the same order,
# the argparse parser that decides every other argv and prints every help
# and usage message.  A leaf's options are (flag, add_argument keywords);
# ``--format``, ``--out`` and ``--bound`` follow every leaf's own.
Leaf = namedtuple("Leaf", "group verb help func positionals options")

GROUP_HELP = {
    "lat": "lattice utilities",
    "cusp": "boundary enumeration",
    "glue": "overlattice utilities",
    "verify": "fixture-driven paper checks",
}


def positive_int(text: str) -> int:
    """``int(text)`` when it is at least 1; ValueError otherwise, which
    argparse reports as a usage error naming the option."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not a positive integer")
    return value


def _common(default_format="json"):
    return (
        ("--format", {"choices": ("json", "md"), "default": default_format}),
        ("--out", {"default": None, "help": "write output to a file"}),
        ("--bound", {"type": positive_int, "default": fqf.ENUM_BOUND,
                     "help": "enumeration cap for brute-force scans"}),
    )


_D = ("--d", {"type": int, "required": True})
_CASE = ("--case", {"choices": ("split", "nonsplit"), "default": "split"})

COMMANDS = (
    Leaf("lat", "info", "rank, determinant, signature, parity", _cmd_lat_info,
         (("lattice", "builtin name, JSON, or path"),), _common()),
    Leaf("lat", "disc", "discriminant quadratic form", _cmd_lat_disc,
         (("lattice", None),), _common()),
    Leaf("cusp", "zero", "zero-dimensional boundary components", _cmd_cusp_zero, (),
         (_D, _CASE,
          ("--mode", {"choices": ("formula", "enumerate", "both"), "default": "both"}),
          *_common())),
    Leaf("cusp", "one", "one-dimensional boundary components", _cmd_cusp_one, (),
         (_D, _CASE,
          ("--candidates", {"default": None,
                            "help": "JSON file of candidate root decompositions"}),
          *_common())),
    Leaf("cusp", "sweep", "formula vs enumeration over a d range", _cmd_cusp_sweep, (),
         (("--d", {"required": True, "help": "range, e.g. 1..50"}), _CASE, *_common())),
    Leaf("glue", "enum", "enumerate isotropic glue subgroups", _cmd_glue_enum, (),
         (("--roots", {"required": True, "help": 'root spec, e.g. "A3+A15"'}),
          ("--order", {"type": int, "default": None}),
          ("--roots-of-overlattice", {"action": "store_true", "default": False}),
          *_common())),
    Leaf("glue", "roots", "root system of a negative definite lattice", _cmd_glue_roots,
         (("lattice", None),), _common()),
    Leaf("verify", "table1", "the 13-row genus table", _cmd_verify_table1, (),
         _common(default_format="md")),
    Leaf("verify", "example-c12", "the cubic-scroll rank-2 fixture", _cmd_verify_example,
         (), _common(default_format="md")),
)


class _Parser:
    """Parser of the exact forms of the grammar in ``COMMANDS``.

    ``parse_args`` accepts only ``<group> <verb>`` as declared, then exact
    long option names each with a separate value (or a bare store-true
    flag) and exactly the declared positionals, in any order; no value or
    positional may start with ``-``.  Each value must pass its ``type`` and
    ``choices``, every required option must be present, and the last of a
    repeated option wins.  It returns what argparse would: a namespace with
    ``command``, ``verb``, ``func`` and every dest.  Every other argv, help
    and usage errors included, goes to the argparse parser built from the
    same table, which decides it as it always has.
    """

    def __init__(self):
        self.leaves = {(leaf.group, leaf.verb): leaf for leaf in COMMANDS}

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        args = self._parse_exact(argv)
        if args is None:
            args = _argparse_parser().parse_args(argv)
        return args

    def _parse_exact(self, argv):
        """The namespace for an exact form, or None for argparse to decide."""
        leaf = self.leaves.get(tuple(argv[:2]))
        if leaf is None:
            return None
        options = dict(leaf.options)
        values = {_dest(flag): kw.get("default") for flag, kw in leaf.options}
        seen = set()
        positionals = []
        rest = iter(argv[2:])
        for token in rest:
            if not token.startswith("-"):
                positionals.append(token)
                continue
            kw = options.get(token)
            if kw is None:
                return None
            seen.add(token)
            if kw.get("action") == "store_true":
                values[_dest(token)] = True
                continue
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except (TypeError, ValueError):
                    return None
            if "choices" in kw and value not in kw["choices"]:
                return None
            values[_dest(token)] = value
        if len(positionals) != len(leaf.positionals):
            return None
        if any(kw.get("required") and flag not in seen for flag, kw in leaf.options):
            return None
        values.update(zip((name for name, _ in leaf.positionals), positionals))
        return SimpleNamespace(command=leaf.group, verb=leaf.verb, func=leaf.func, **values)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def build_parser() -> _Parser:
    """The CLI parser.  It parses the exact forms of ``COMMANDS`` itself (see
    ``_Parser``); argparse, imported only then, decides every other argv,
    help and usage errors included."""
    return _Parser()


def _argparse_parser():
    """The argparse parser of ``COMMANDS``: a subparser per group and per
    verb, and an argument per positional and option, in table order.  It
    decides every argv that is not an exact form, and prints every help
    and usage message."""
    import argparse

    p = argparse.ArgumentParser(prog="cuspidal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for leaf in COMMANDS:
        if leaf.group not in groups:
            groups[leaf.group] = sub.add_parser(
                leaf.group, help=GROUP_HELP[leaf.group]
            ).add_subparsers(dest="verb", required=True)
        sp = groups[leaf.group].add_parser(leaf.verb, help=leaf.help)
        for name, help_text in leaf.positionals:
            sp.add_argument(name, help=help_text)
        for flag, kw in leaf.options:
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=leaf.func)
    return p


def run(argv=None) -> int:
    """Run one CLI command and return its exit code.

    Exact forms are parsed by ``build_parser``'s table lookup; help, usage
    errors and every other form by argparse, whose exit is caught here.
    """
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
