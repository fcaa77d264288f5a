"""The integer kernels as they were written before their inner loops moved
into C-level ``map``, gathers and whole-row updates, kept as oracles.

Each computes entry by entry what the package kernel computes, with the
same arithmetic, so a test may ask for equal results.  The finite
quadratic forms generated by rows R are built here as the ``matmul``
triple product R G R^T, for every form and for the p-parts too, where
the package pairs the rows with G r and reads the p-parts off G.
"""

from math import prod

from cuspidal.errors import BadParameter, InternalError
from cuspidal.exact import SmithDecomposition, _pivot, _xgcd, bilinear, factorize, matmul
from cuspidal import fqf
from cuspidal.fqf import Form, make_form


def product_by_loops(a, b) -> list:
    """a b of two integer matrices given as row lists, by a triple loop."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def apply_by_loops(a, vec) -> list:
    """a vec for a matrix given as row lists, one entry at a time."""
    return [sum(row[k] * vec[k] for k in range(len(vec))) for row in a]


def isotropic_by_filter(form, bound) -> list:
    """The elements x of ``fqf.elements(form, bound)`` with level q(x) = 0 mod 2 level."""
    modulus = 2 * form.level
    return [x for x in fqf.elements(form, bound) if bilinear(form.gram, x, x) % modulus == 0]


def scaled_lift_dense(source, x, level) -> tuple:
    """level times the lift sum_i x_i V e_k / d_k, k = kept[i], as the dense
    product of V with the coefficient vector c, c_k = x_i level / d_k."""
    V, d = source.smith.right, source.smith.diag
    c = [0] * len(d)
    for a, k in zip(x, source.kept):
        c[k] = a * (level // d[k])
    return tuple(apply_by_loops(V, c))


def check_signed_permutation_by_product(domain, perm, signs) -> None:
    """``lattice.check_signed_permutation`` through the matrix M of
    e_j -> signs[j] e_perm[j]: raise BadParameter unless M^T G M = G."""
    n = domain.rank
    if sorted(perm) != list(range(n)) or len(signs) != n or any(
        s not in (1, -1) for s in signs
    ):
        raise BadParameter("not a signed permutation of the basis")
    m = [[0] * n for _ in range(n)]
    for src, (dst, s) in enumerate(zip(perm, signs)):
        m[dst][src] = s
    mt = [list(col) for col in zip(*m)]
    G = [list(row) for row in domain.gram]
    if product_by_loops(product_by_loops(mt, G), m) != G:
        raise BadParameter("signed permutation does not preserve the form")


def smith_normal_form_full_rows(A) -> SmithDecomposition:
    """``exact.smith_normal_form`` with every column operation on every row
    and every row operation on whole rows: the same pivots and steps."""
    m, n = len(A), len(A[0]) if A else 0
    S = [list(r) for r in A]
    L, Rt = [[0] * m for _ in range(m)], [[0] * n for _ in range(n)]
    for M in (L, Rt):
        for i, row in enumerate(M):
            row[i] = 1

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        L[i], L[j] = L[j], L[i]

    def row_add(dst, src, c):
        if c:
            S[dst] = [a + c * b for a, b in zip(S[dst], S[src])]
            L[dst] = [a + c * b for a, b in zip(L[dst], L[src])]

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        L[i] = [-a for a in L[i]]

    def col_swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        Rt[i], Rt[j] = Rt[j], Rt[i]

    def col_add(dst, src, c):
        if c:
            for row in S:
                row[dst] += c * row[src]
            Rt[dst] = [a + c * b for a, b in zip(Rt[dst], Rt[src])]

    def gcd_rows(i, j, c):
        g, x, y = _xgcd(S[i][c], S[j][c])
        p, q = S[i][c] // g, S[j][c] // g
        for M in (S, L):
            ri, rj = M[i], M[j]
            M[i] = [x * u + y * v for u, v in zip(ri, rj)]
            M[j] = [-q * u + p * v for u, v in zip(ri, rj)]

    def gcd_cols(i, j, r):
        g, x, y = _xgcd(S[r][i], S[r][j])
        p, q = S[r][i] // g, S[r][j] // g
        for row in S:
            ci, cj = row[i], row[j]
            row[i] = x * ci + y * cj
            row[j] = -q * ci + p * cj
        ri, rj = Rt[i], Rt[j]
        Rt[i] = [x * u + y * v for u, v in zip(ri, rj)]
        Rt[j] = [-q * u + p * v for u, v in zip(ri, rj)]

    t = 0
    top = min(m, n)
    while t < top:
        best = _pivot(S, t)
        if best is None:
            break
        if best[0] != t:
            row_swap(best[0], t)
        if best[1] != t:
            col_swap(best[1], t)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    if S[i][t] % S[t][t]:
                        gcd_rows(t, i, t)
                    else:
                        row_add(i, t, -(S[i][t] // S[t][t]))
            for j in range(t + 1, n):
                if S[t][j]:
                    if S[t][j] % S[t][t]:
                        gcd_cols(t, j, t)
                        dirty = True
                    else:
                        col_add(j, t, -(S[t][j] // S[t][t]))
            if not dirty:
                break
        t += 1

    rank = t
    for i in range(rank):
        if S[i][i] < 0:
            row_neg(i)
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            for j in range(i + 1, rank):
                a, b = S[i][i], S[j][j]
                if b % a == 0:
                    continue
                changed = True
                row_add(i, j, 1)
                gcd_cols(i, j, i)
                row_add(j, i, -(S[j][i] // S[i][i]))
                if S[i][i] < 0:
                    row_neg(i)
                if S[j][j] < 0:
                    row_neg(j)
    diag = tuple(S[i][i] for i in range(top))
    return SmithDecomposition(tuple(map(tuple, L)), diag, tuple(zip(*Rt)))


def generated_form_by_products(gram, level: int, rows, orders):
    """``fqf._generated_form`` through the matrix R of ``rows``: R gram R^T
    over ``level`` as two ``matmul`` products, rescaled to the exponent of
    ``orders``."""
    if not orders:
        return make_form((), ())
    scale = level // orders[-1]
    moved = matmul(matmul(rows, gram), tuple(zip(*rows)))
    if level % orders[-1] or any(x % scale for row in moved for x in row):
        raise InternalError("generator values do not lie over the new level")
    return make_form(orders, [[x // scale for x in row] for row in moved])


def primary_parts_by_products(form: Form, primes=None) -> dict:
    """{p: A_p} as ``fqf._primary_parts`` lists them, with each p-part
    generated by the full rows (d_i / p^e_i) e_i through
    ``generated_form_by_products``."""
    if primes is None:
        primes = factorize(form.level)
    parts = {}
    for p in sorted(p for p in set(primes) if form.level % p == 0):
        rows, orders = [], []
        for i, d in enumerate(form.orders):
            pe = 1
            while d % (pe * p) == 0:
                pe *= p
            if pe > 1:
                rows.append([d // pe if j == i else 0 for j in range(form.rank)])
                orders.append(pe)
        parts[p] = generated_form_by_products(form.gram, form.level, rows, tuple(orders))
    if prod(part.cardinality for part in parts.values()) != form.cardinality:
        raise InternalError("the given primes miss a prime of the group order")
    return parts
