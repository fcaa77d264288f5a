"""Reference kernels that the tests compare the package code with.

None of these runs in ``cuspidal``: Gauss-Jordan over Q
(``solve_rational``, ``rational_inverse``) and Lagrange congruence
diagonalization over Q (``lagrange_signature``) are independent second
derivations of what the package computes with Smith, Hermite and
fraction-free Bareiss transforms.  ``full_scan_pivot`` is the Smith
pivot search without its stop at a unit, and ``trial_division`` the
factorization without Miller-Rabin and Pollard rho.  ``bareiss_det`` is
the general fraction-free determinant, for any square matrix: it checks
the symmetric elimination of ``exact.det_and_signature`` and gives the
determinants of Smith and LLL transforms and of isometries.
``fraction_presentation`` reads a finite quadratic form given by
Fraction values q_i and b_ij of its generators, with the checks of the
Fraction constructor that the integer Gram over the level replaced.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from cuspidal.errors import SingularMatrix
from cuspidal.exact import is_symmetric


def bareiss_det(A) -> int:
    """Determinant of a square matrix by fraction-free Bareiss elimination
    with row swaps."""
    n = len(A)
    if n != (len(A[0]) if A else 0):
        raise ValueError("determinant of non-square matrix")
    m = [list(r) for r in A]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def solve_rational(A, b) -> tuple | None:
    """Solve A x = b exactly over Q; None when inconsistent.

    Underdetermined systems get free variables set to 0.  Entries of b
    may be ints or Fractions.
    """
    m, n = len(A), len(A[0]) if A else 0
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    if any(M[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = M[i][n]
    return tuple(x)


def rational_inverse(A):
    """Inverse of a nonsingular integer matrix, as rows of Fractions.

    Column j solves A x = e_j; a singular A leaves some e_j outside its
    column space.
    """
    n = len(A)
    if n != (len(A[0]) if A else 0):
        raise ValueError("inverse of non-square matrix")
    cols = []
    for j in range(n):
        x = solve_rational(A, [int(i == j) for i in range(n)])
        if x is None:
            raise SingularMatrix("matrix is singular")
        cols.append(x)
    return [list(row) for row in zip(*cols)]


def lagrange_signature(A) -> tuple:
    """Signature (positives, negatives) of a nonsingular symmetric matrix.

    Congruence diagonalization over Q (Lagrange); the trailing Schur
    complement at each step keeps everything symmetric.  Raises
    SingularMatrix on degenerate input.
    """
    if not is_symmetric(A):
        raise ValueError("matrix is not symmetric")
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    pos = neg = 0
    for t in range(n):
        if M[t][t] == 0:
            k = next((i for i in range(t + 1, n) if M[i][i] != 0), None)
            if k is None:
                pair = next(
                    ((i, j) for i in range(t, n) for j in range(i + 1, n) if M[i][j]),
                    None,
                )
                if pair is None:
                    raise SingularMatrix("degenerate symmetric form")
                i, j = pair
                for c in range(n):
                    M[i][c] += M[j][c]
                for r in range(n):
                    M[r][i] += M[r][j]
                k = i
            M[t], M[k] = M[k], M[t]
            for row in M:
                row[t], row[k] = row[k], row[t]
        p = M[t][t]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, n):
            f = M[i][t] / p
            if f:
                for j in range(t + 1, n):
                    M[i][j] -= f * M[t][j]
        for i in range(t + 1, n):
            M[i][t] = Fraction(0)
            M[t][i] = Fraction(0)
    return (pos, neg)


def over_common_denominator(vec) -> tuple:
    """(N v, N) for a vector v of ints and Fractions, N the least common
    denominator of its entries."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    return tuple(int(x * den) for x in vec), den


def full_scan_pivot(S, t):
    """Position of the first entry of least nonzero absolute value in the
    trailing block S[t:][t:], row-major, found by scanning the whole block;
    None when the block is zero."""
    best = None
    for i in range(t, len(S)):
        for j in range(t, len(S[i])):
            if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                best = (i, j)
    return best


def trial_division(n: int) -> dict:
    """Prime factorization {p: e} of a positive integer by trial division
    up to the square root of what is left."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def fraction_presentation(orders, qdiag, bmat):
    """(orders, qdiag mod 2, bmat mod 1) of a form given by the q values of
    its generators and the b values of pairs of them, or ValueError where
    they define no form on ``orders``.  The diagonal of ``bmat`` is not
    read: b(e_i, e_i) is q_i mod 1."""
    orders = tuple(int(d) for d in orders)
    if any(d < 2 for d in orders):
        raise ValueError("invariant factors must be >= 2")
    if any(orders[i + 1] % orders[i] for i in range(len(orders) - 1)):
        raise ValueError("orders must form a divisibility chain")
    r = len(orders)
    qdiag = tuple(Fraction(x) % 2 for x in qdiag)
    if len(qdiag) != r:
        raise ValueError("one q value per generator required")
    full = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        full[i][i] = qdiag[i] % 1
        for j in range(r):
            if i != j:
                full[i][j] = Fraction(bmat[i][j]) % 1
    for i in range(r):
        for j in range(r):
            if full[i][j] != full[j][i]:
                raise ValueError("bilinear matrix must be symmetric")
            if orders[i] * full[i][j] % 1 != 0:
                raise ValueError("bilinear value incompatible with orders")
    for i in range(r):
        if orders[i] * orders[i] * qdiag[i] % 2 != 0 or orders[i] * qdiag[i] % 1 != 0:
            raise ValueError("q value incompatible with generator order")
    return orders, qdiag, tuple(tuple(row) for row in full)
