"""Operations on finite quadratic forms that no command runs, for the tests.

The orthogonal direct sum of forms, which ``group_claims.t_set`` and the
tests build, one representative per {x, -x} orbit, the listing that
``fqf.isotropic_pm1_count`` counts without listing, and isotropy of a
subgroup by a scan of its elements, which ``fqf.require_isotropic``
decides from the generators.
"""

from __future__ import annotations

from math import lcm

from cuspidal.exact import IntMatrix
from cuspidal.fqf import (
    FiniteQuadraticForm, FqfSubgroup, _generated_form, _row_quotient, trivial_form,
)


def direct_sum_form(*forms: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Orthogonal direct sum, renormalized to invariant-factor shape."""
    orders = [d for f in forms for d in f.orders]
    if not orders:
        return trivial_form()
    level = lcm(*(f.level for f in forms))
    gram = IntMatrix.block_diagonal(f.gram.scaled(level // f.level) for f in forms)
    quotient = _row_quotient(IntMatrix.identity(len(orders)), IntMatrix.diagonal(orders))
    kept = [i for i, d in enumerate(quotient.orders) if d > 1]
    return _generated_form(
        gram,
        level,
        [quotient.generator_rows.data[i] for i in kept],
        tuple(quotient.orders[i] for i in kept),
    )


def mod_pm1(form: FiniteQuadraticForm, elems) -> list:
    """One representative per {x, -x} orbit, the lexicographically smaller."""
    reps = []
    seen = set()
    for x in elems:
        x = form.reduce(x)
        if x in seen:
            continue
        mx = form.smul(-1, x)
        seen.add(x)
        seen.add(mx)
        reps.append(min(x, mx))
    return sorted(reps)


def isotropic_by_scan(subgroup: FqfSubgroup) -> bool:
    """True when q vanishes on every element of the subgroup, each evaluated."""
    return not any(subgroup.form.q_scaled(x) for x in subgroup.elements)
