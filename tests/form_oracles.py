"""Operations on finite quadratic forms that no command runs, for the tests.

The orthogonal direct sum of forms, which ``group_claims.t_set`` and the
tests build, one representative per {x, -x} orbit, the listing that
``fqf.isotropic_pm1_count`` counts without listing, and isotropy of a
subgroup by a scan of its elements, which ``fqf.require_isotropic``
decides from the generators.
"""

from __future__ import annotations

from math import lcm

from cuspidal.exact import block_diagonal, diagonal, scaled
from cuspidal import fqf
from cuspidal.fqf import Form, FqfSubgroup, _generated_form, _row_quotient, make_form


def direct_sum_form(*forms: Form) -> Form:
    """Orthogonal direct sum, renormalized to invariant-factor shape."""
    orders = [d for f in forms for d in f.orders]
    if not orders:
        return make_form((), ())
    level = lcm(*(f.level for f in forms))
    gram = block_diagonal(scaled(f.gram, level // f.level) for f in forms)
    _, rows, diag = _row_quotient(diagonal((1,) * len(orders)), diagonal(orders))
    kept = [i for i, d in enumerate(diag) if d > 1]
    return _generated_form(gram, level, [rows[i] for i in kept], tuple(diag[i] for i in kept))


def mod_pm1(form: Form, elems) -> list:
    """One representative per {x, -x} orbit, the lexicographically smaller."""
    reps = []
    seen = set()
    for x in elems:
        x = fqf.reduce(form, x)
        if x in seen:
            continue
        mx = fqf.smul(form, -1, x)
        seen.add(x)
        seen.add(mx)
        reps.append(min(x, mx))
    return sorted(reps)


def isotropic_by_scan(subgroup: FqfSubgroup) -> bool:
    """True when q vanishes on every element of the subgroup, each evaluated."""
    return not any(fqf.q_scaled(subgroup.form, x) for x in subgroup.elements)
