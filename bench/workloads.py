"""The benchmark workloads: fixed paper fixtures and their output checks.

Each check takes the CLI's exit code and captured stdout and returns None
when the output is right, or a one-line reason when it is not.  The checks
read values rather than a byte digest, so fields added to a report later
do not break them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

# Table 1 of the paper (split d = 1): |O(A_E)|, |Im tau| and the class
# count per candidate root system, as the unoptimised code computes them.
TABLE1_EXPECTED = {
    "2E8+2A1": (2, 2, 1),
    "D16+2A1": (2, 2, 1),
    "E8+D10": (2, 2, 1),
    "E7+D10+A1": (2, 1, 2),
    "2E7+D4": (2, 2, 1),
    "A17+A1": (2, 1, 2),
    "D18": (2, 2, 1),
    "D12+D6": (2, 2, 1),
    "2A1+2D8": (2, 2, 1),
    "A3+A15": (2, 2, 1),
    "E6+A11+<-4>": (2, 2, 1),
    "3D6": (2, 2, 1),
    "2A9": (2, 2, 1),
}
TABLE1_TOTAL = 15

# Doubly-even self-dual binary codes of length 8: the 8!/|AGL(3,2)| = 30
# images of the extended Hamming code, each gluing 8A1 up to E8.
GLUE_8A1_COUNT = 30

NU_SWEEP_HI = 400

# d = 30000 = 3 * 100^2 in the split case: d' = 3 = 3 mod 4, so nu = k + 1.
ZERO_LARGE_NU = 101


def check_table1(obj) -> str | None:
    if obj.get("all_ok") is not True:
        return "all_ok is not true"
    rows = obj.get("rows", [])
    if len(rows) != len(TABLE1_EXPECTED):
        return f"{len(rows)} rows, expected {len(TABLE1_EXPECTED)}"
    seen = set()
    for row in rows:
        roots = row.get("roots")
        if roots not in TABLE1_EXPECTED or roots in seen:
            return f"unexpected row {roots!r}"
        seen.add(roots)
        if row.get("genus_ok") is not True or row.get("roots_ok") is not True:
            return f"row {roots}: genus_ok/roots_ok not true"
        got = (row.get("o_ae"), row.get("im_tau"), row.get("classes"))
        if got != TABLE1_EXPECTED[roots]:
            return f"row {roots}: (o_ae, im_tau, classes) = {got}, expected {TABLE1_EXPECTED[roots]}"
    if obj.get("total_classes_conditional") != TABLE1_TOTAL:
        return f"total_classes_conditional is {obj.get('total_classes_conditional')}"
    return None


def check_glue_8a1(obj) -> str | None:
    glues = obj.get("glues", [])
    if len(glues) != GLUE_8A1_COUNT:
        return f"{len(glues)} glues, expected {GLUE_8A1_COUNT}"
    for g in glues:
        if g.get("order") != 16 or g.get("overlattice_det") != 1 or g.get("roots") != "E8":
            return f"glue {g.get('generators')} does not give E8"
    if len({json.dumps(g.get("generators")) for g in glues}) != GLUE_8A1_COUNT:
        return "duplicate glue subgroups"
    return None


def check_nu_sweep(obj) -> str | None:
    rows = obj.get("rows", [])
    if [r.get("d") for r in rows] != list(range(1, NU_SWEEP_HI + 1)):
        return f"rows do not cover d = 1..{NU_SWEEP_HI}"
    if obj.get("mismatches") != 0:
        return f"mismatches is {obj.get('mismatches')}"
    for r in rows:
        if r.get("formula") is None or r.get("formula") != r.get("enumerated"):
            return f"d = {r.get('d')}: formula {r.get('formula')} != enumerated {r.get('enumerated')}"
    return None


def check_zero_large(obj) -> str | None:
    zero = obj.get("zero_dim", {})
    got = (zero.get("formula"), zero.get("enumerated"), len(zero.get("reps", [])))
    if got != (ZERO_LARGE_NU,) * 3:
        return f"(formula, enumerated, reps) = {got}, expected {ZERO_LARGE_NU} each"
    return None


@dataclass(frozen=True)
class Workload:
    argv: tuple
    check_obj: Callable
    why: str

    def check(self, exit_code: int, output: str) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            obj = json.loads(output)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        if not isinstance(obj, dict):
            return "output is not a JSON object"
        return self.check_obj(obj)


WORKLOADS = {
    "table1": Workload(
        ("verify", "table1", "--format", "json"), check_table1,
        "all 13 Table 1 rows: mostly glue.overlattice, short_vectors and LLL"),
    "glue_8a1": Workload(
        ("glue", "enum", "--roots", "8A1", "--order", "16", "--roots-of-overlattice"),
        check_glue_8a1,
        "902 isotropic subgroups of an order-256 form: mostly fqf subgroup search"),
    "nu_sweep": Workload(
        ("cusp", "sweep", "--d", f"1..{NU_SWEEP_HI}", "--case", "split"), check_nu_sweep,
        "400 small forms: per-form set-up and fqf.isotropic_elements, no glue"),
    "zero_large": Workload(
        ("cusp", "zero", "--d", "30000"), check_zero_large,
        "one form of order 120000 scanned twice: isotropic scan and orbit_reps at scale"),
}
