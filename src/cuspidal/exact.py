"""Exact integer linear algebra.

A matrix is a tuple of equal-length tuples of ints, its rows, and its
transpose is ``tuple(zip(*M))``; the functions here take any sequence of
rows and return such tuples.  Everything works with arbitrary-precision
Python ints; no floating point appears in any result path, and no
elimination runs over Q.  The paper's lattices have rank at most 24, but
a lattice name may reach rank 1000 (``lattice.MAX_NAME_RANK``): ``glue
roots D200`` runs LLL at rank 200, and Fincke-Pohst there until its node
bound stops it.  The algorithms favour simplicity over asymptotics: Smith
normal form with transform matrices whose every non-divisible step is a
unimodular gcd mix of two rows or columns (the pivot is the first entry
of least absolute value, and its search stops at a unit); one fraction-free
symmetric Bareiss elimination, the only one in the package, whose pivots
give the signature of a form and whose last pivot is its determinant (it
builds no congruence basis); and integral LLL at delta = 99/100 on the
leading minors and scaled Gram-Schmidt coefficients.  Inner products are
``sum(map(mul, ...))``, with no Python frame per entry.  The one matrix
product, ``matmul``, takes each row of its left operand with at most a
third of its entries nonzero as the sum of the rows of the right operand
that those entries pick, and any other row as inner products with the
columns, so it costs at most 3 nnz(left) x cols; isometries and
root-lattice Grams are mostly zero.  A Smith step touches only the
nonzero entries of its source row, and only the rows that are nonzero in
its columns.

Dual and quotient coordinates stay in integers: callers read them off a
Smith transform or solve against a Hermite basis with ``hnf_coords``.
A finite quadratic form is a Gram matrix over its level, so ``bilinear``
evaluates lattice and discriminant forms alike.  It and ``apply`` also
accept Fraction vectors; in the package only the rational vectors of
``claims`` (the splitting of ``verify example-c12``) use that.
"""

from collections import namedtuple
from itertools import compress
from math import gcd
from operator import itemgetter, mul

from .errors import BadParameter, GroupTooLarge, InternalError, SingularMatrix

LLL_DELTA = (99, 100)  # the LLL parameter delta = 99/100 as (numerator, denominator)


def diagonal(entries) -> tuple:
    """The square matrix with ``entries`` on its diagonal."""
    entries = tuple(entries)
    n = len(entries)
    return tuple((0,) * i + (x,) + (0,) * (n - 1 - i) for i, x in enumerate(entries))


def block_diagonal(blocks) -> tuple:
    """The orthogonal sum of square matrices, in order."""
    blocks = list(blocks)
    if any(len(b) != len(b[0]) for b in blocks if b):
        raise BadParameter("block_diagonal needs square blocks")
    n = sum(map(len, blocks))
    out, off = [], 0
    for b in blocks:
        left, right = (0,) * off, (0,) * (n - off - len(b))
        out += [left + row + right for row in b]
        off += len(b)
    return tuple(out)


def scaled(M, t: int) -> tuple:
    """t M; ``scaled(M, -1)`` is -M."""
    return tuple(tuple([t * x for x in r]) for r in M)


def matmul(A, B) -> tuple:
    """The product A B (see the module docstring for how rows are formed)."""
    n = len(A[0]) if A else 0
    if n != len(B):
        raise BadParameter("shape mismatch")
    zero, bt, out = [0] * (len(B[0]) if B else 0), None, []
    for row in A:
        if 3 * (n - row.count(0)) > n:
            if bt is None:
                bt = list(zip(*B))
            out.append(tuple([sum(map(mul, row, col)) for col in bt]))
            continue
        acc = zero
        for a, brow in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def is_symmetric(M) -> bool:
    """Whether M is square, every row as long as M, and equal to its transpose."""
    n = len(M)
    return all(len(row) == n for row in M) and all(
        M[i][j] == M[j][i] for i in range(n) for j in range(i)
    )


def apply(M, vec) -> tuple:
    """M times a column vector; entries may be ints or Fractions."""
    if len(vec) != (len(M[0]) if M else 0):
        raise BadParameter("shape mismatch")
    return tuple([sum(map(mul, row, vec)) for row in M])


def bilinear(M, x, y):
    """x^t M y; entries may be ints or Fractions."""
    return sum(map(mul, x, apply(M, y)))


class SmithDecomposition(namedtuple("SmithDecomposition", "left diag right")):
    """left A right equals the (rectangular) diagonal matrix of ``diag``;
    ``left`` and ``right`` are unimodular transforms."""

    __slots__ = ()


def _xgcd(a: int, b: int):
    """g, x, y with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


_TRIAL_LIMIT = 128  # trial division by the numbers below this comes first
# the first 13 primes as Miller-Rabin bases prove primality below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# Pollard rho gives up after this many steps on one composite (about 3 s
# for a 100-bit n on a 2-vCPU host); a prime factor p takes about sqrt(p)
_RHO_LIMIT = 2**20


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of a positive integer, primes ascending.

    Trial division by the numbers below 128 comes first.  The cofactor
    is then split by Pollard's rho, its factors proved prime by
    deterministic Miller-Rabin.  That proof holds below 3.3 * 10^24
    (``_MR_LIMIT``); a larger factor that Miller-Rabin does not show
    composite raises GroupTooLarge naming that bound.  Rho takes about
    sqrt(p) steps to split off a prime p, so it stops after ``_RHO_LIMIT``
    steps on one composite and raises GroupTooLarge naming that cap: a
    composite whose two least prime factors both lie far above 10^12 gets
    no answer.
    """
    if n < 1:
        raise BadParameter("factorize needs a positive integer")
    out = {}
    p = 2
    while p * p <= n and p < _TRIAL_LIMIT:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        # the loop stopped past the square root of n, so n is prime, or at
        # the trial limit
        for q in (n,) if p * p > n else sorted(_prime_factors(n)):
            out[q] = out.get(q, 0) + 1
    return out


def _prime_factors(n: int) -> list:
    """Prime factors, with multiplicity, of n > 1 with no factor below
    _TRIAL_LIMIT."""
    if _is_prime(n):
        if n >= _MR_LIMIT:
            raise GroupTooLarge(
                f"factor {n} passes Miller-Rabin but exceeds its proof bound {_MR_LIMIT}")
        return [n]
    f = _rho_factor(n)
    return _prime_factors(f) + _prime_factors(n // f)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, a proof for odd n > 41 below _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho on x -> x^2 + c
    from 2 with Floyd's cycle search, for c = 1, 2, ... until the gcd is
    a proper factor, in at most ``_RHO_LIMIT`` steps over all c."""
    steps = 0
    for c in range(1, n):
        x = y = 2
        g = 1
        while g == 1:
            steps += 1
            if steps > _RHO_LIMIT:
                raise GroupTooLarge(
                    f"Pollard rho finds no factor of {n} within its step bound {_RHO_LIMIT}")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g
    raise InternalError(f"no factor of {n} found")


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form with unimodular transform matrices.

    Returns left, diag, right with left A right diagonal, diagonal
    entries nonnegative and satisfying d1 | d2 | ... followed by zeros.
    Step t moves to (t, t) the first entry of least absolute value in the
    trailing block (``_pivot``, which stops at a unit) and clears its row
    and column.
    """
    m, n = len(A), len(A[0]) if A else 0
    S = [list(r) for r in A]
    L, Rt = [[0] * m for _ in range(m)], [[0] * n for _ in range(n)]  # Rt is R transposed
    for M in (L, Rt):
        for i, row in enumerate(M):
            row[i] = 1

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        L[i], L[j] = L[j], L[i]

    def row_add(dst, src, c):
        if c:
            _add_multiple(S[dst], c, S[src])
            _add_multiple(L[dst], c, L[src])

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        L[i] = [-a for a in L[i]]

    def col_add(dst, src, c):
        if c:
            for row in compress(S, map(itemgetter(src), S)):
                row[dst] += c * row[src]
            _add_multiple(Rt[dst], c, Rt[src])

    def gcd_rows(i, j, c):
        # rows (i, j) <- (x ri + y rj, -q ri + p rj), det 1: S[i][c] becomes
        # gcd(S[i][c], S[j][c]) and S[j][c] becomes 0
        g, x, y = _xgcd(S[i][c], S[j][c])
        p, q = S[i][c] // g, S[j][c] // g
        for M in (S, L):
            ri, rj = M[i], M[j]
            M[i] = [x * u + y * v for u, v in zip(ri, rj)]
            M[j] = [-q * u + p * v for u, v in zip(ri, rj)]

    def gcd_cols(i, j, r):
        # the same mix on columns (i, j), driven by row r
        g, x, y = _xgcd(S[r][i], S[r][j])
        p, q = S[r][i] // g, S[r][j] // g
        for row in S:
            ci, cj = row[i], row[j]
            row[i] = x * ci + y * cj
            row[j] = -q * ci + p * cj
        ri, rj = Rt[i], Rt[j]
        Rt[i] = [x * u + y * v for u, v in zip(ri, rj)]
        Rt[j] = [-q * u + p * v for u, v in zip(ri, rj)]

    # Each step leaves row t zero right of the pivot, and later steps combine
    # only columns right of it, so the rows above step t stay zero from column
    # t on: column operations of step t touch rows t and below only.
    t = 0
    top = min(m, n)
    while t < top:
        best = _pivot(S, t)
        if best is None:
            break
        if best[0] != t:
            row_swap(best[0], t)
        if best[1] != t:
            j = best[1]
            for row in S[t:]:
                row[j], row[t] = row[t], row[j]
            Rt[j], Rt[t] = Rt[t], Rt[j]
        # a pivot that does not divide an entry takes the gcd of the two by a
        # unimodular 2x2 mix; remainder-and-swap steps let the entries grow
        # without bound (Kannan & Bachem, SIAM J. Comput. 8, 1979)
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
                        gcd_cols(t, j, t)  # may refill column t below the pivot
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
    # enforce the divisibility chain with unimodular 2x2 mixes on diag pairs
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if S[i][i] == 1:
                continue  # a unit divides every entry after it
            for j in range(i + 1, rank):
                a, b = S[i][i], S[j][j]
                if b % a == 0:
                    continue
                changed = True
                row_add(i, j, 1)  # row i now (a at col i, b at col j)
                gcd_cols(i, j, i)
                row_add(j, i, -(S[j][i] // S[i][i]))
                if S[i][i] < 0:
                    row_neg(i)
                if S[j][j] < 0:
                    row_neg(j)
    diag = tuple(S[i][i] for i in range(top))
    return SmithDecomposition(tuple(map(tuple, L)), diag, tuple(zip(*Rt)))


def _add_multiple(dst: list, c: int, src) -> None:
    """dst += c src in place, on the entries where src is nonzero only."""
    for k in compress(range(len(src)), src):
        dst[k] += c * src[k]


def _pivot(S, t):
    """Position of the first entry of least nonzero absolute value in the
    trailing block S[t:][t:], in row-major order; None when the block is zero.

    The scan stops at the first unit, since no nonzero integer is smaller:
    it returns the position the full scan would.
    """
    best, least = None, 0
    for i in range(t, len(S)):
        row = S[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (best is None or x < least):
                if x == 1:
                    return i, j
                best, least = (i, j), x
    return best


def det_and_signature(A) -> tuple:
    """(det, (positives, negatives)) of a nonsingular symmetric matrix, by
    fraction-free symmetric elimination.

    Step t turns the trailing block into (p M_ij - M_it M_tj) / prev, an
    exact division (Bareiss, Math. Comp. 22, 1968), with p the new pivot
    and prev the one before (1 at the start).  The pivots are the leading
    minors d_1, d_2, ... of a matrix congruent to A by a unimodular
    change of basis, so the last one is det A.  A zero pivot is swapped
    with a later nonzero diagonal entry, or, when the whole trailing
    diagonal is zero, made nonzero by adding row and column j to row and
    column i for some M_ij != 0.  Pivot t counts as positive when it has
    the same sign as the one before: the congruent diagonal form has
    entry d_t d_(t+1) there, with d_0 = 1.  Raises SingularMatrix on
    degenerate input.
    """
    if not is_symmetric(A):
        raise BadParameter("matrix is not symmetric")
    n = len(A)
    M = [list(row) for row in A]
    negatives = 0
    prev = 1
    for t in range(n):
        if M[t][t] == 0:
            k = next((i for i in range(t + 1, n) if M[i][i] != 0), None)
            if k is None:
                pair = next(
                    ((i, j) for i in range(t, n) for j in range(i + 1, n) if M[i][j]),
                    None,
                )
                if pair is None:
                    raise SingularMatrix("gram matrix is degenerate")
                i, j = pair
                M[i] = [a + b for a, b in zip(M[i], M[j])]
                for row in M:
                    row[i] += row[j]
                k = i
            M[t], M[k] = M[k], M[t]
            for row in M:
                row[t], row[k] = row[k], row[t]
        p = M[t][t]
        negatives += (p > 0) != (prev > 0)
        pivot_row = M[t][t + 1:]
        for i in range(t + 1, n):
            a = M[i][t]
            # columns up to t of row i are not read again
            M[i][t + 1:] = [(p * x - a * y) // prev for x, y in zip(M[i][t + 1:], pivot_row)]
        prev = p
    return prev, (n - negatives, negatives)


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, ties to even, for b > 0.

    Equals ``round(Fraction(a, b))`` without building the Fraction.
    """
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def integral_gram_schmidt(gram) -> tuple:
    """Integral Gram-Schmidt data of a positive definite Gram matrix.

    Returns (d, lam): d[0] = 1 and d[i] is the i-th leading principal
    minor, so the i-th Gram-Schmidt norm is d[i+1] / d[i]; for j < i,
    lam[i][j] = d[j+1] * mu[i][j] is an integer (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7).  Raises
    BadParameter when some minor is not positive.
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = gram[i][j]
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise BadParameter("gram matrix is not definite")
            else:
                d[i + 1] = u
    return d, lam


def lll_reduce(A) -> tuple:
    """LLL-reduce the basis of a definite Gram matrix, delta = 99/100.

    Returns (reduced_gram, T) with T unimodular and reduced_gram = T^t A T,
    both with the sign convention of the input.  Integral LLL on the
    leading minors d and scaled coefficients lam of
    ``integral_gram_schmidt``: full size reduction of b_k, then the
    Lovasz test d[k+1] d[k-1] + lam[k][k-1]^2 >= delta d[k]^2; a swap
    updates d and lam in place (Cohen, Alg. 2.6.7, SWAPI).  Raises
    BadParameter on indefinite or degenerate input.
    """
    if not is_symmetric(A):
        raise BadParameter("matrix is not symmetric")
    n = len(A)
    if n == 0:
        return A, ()
    neg = A[0][0] < 0
    d, lam = integral_gram_schmidt(scaled(A, -1) if neg else A)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]  # rows = coeffs
    num, den = LLL_DELTA

    k = 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_div(lam_k[j], d[j + 1])
            if q:
                # b_k <- b_k - q b_j
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                lam_j = lam[j]
                for c in range(j):
                    lam_k[c] -= q * lam_j[c]
                lam_k[j] -= q * d[j + 1]
        lk = lam_k[k - 1]
        if den * (d[k + 1] * d[k - 1] + lk * lk) >= num * d[k] * d[k]:
            k += 1
            continue
        # swap b_{k-1} and b_k; lam[k][k-1] keeps its value
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        lam_k1 = lam[k - 1]
        for j in range(k - 1):
            lam_k[j], lam_k1[j] = lam_k1[j], lam_k[j]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            lam_i = lam[i]
            t = lam_i[k]
            lam_i[k] = (d[k + 1] * lam_i[k - 1] - lk * t) // d[k]
            lam_i[k - 1] = (b * t + lk * lam_i[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)

    T = tuple(zip(*basis))
    return matmul(matmul(basis, A), T), T


def kernel_basis(A) -> tuple:
    """Basis (rows) of the saturated integer kernel {x : A x = 0}.

    The SNF right-transform columns matching zero invariant factors form
    a primitive basis, so the result is saturated in Z^cols.
    """
    snf = smith_normal_form(A)
    rank = sum(1 for d in snf.diag if d != 0)
    return tuple(zip(*snf.right))[rank:]


def hnf_rows(rows) -> tuple:
    """Row-style Hermite normal form basis of the span of integer ``rows``.

    Pivots positive, entries above each pivot reduced into [0, pivot);
    zero rows dropped.
    """
    pool = [list(r) for r in rows if any(r)]
    if not pool:
        return ()
    ncols = len(pool[0])
    basis = []
    for col in range(ncols):
        if not pool:
            break
        cand = [r for r in pool if r[col] != 0]
        rest = [r for r in pool if r[col] == 0]
        if cand:
            piv = cand[0]
            for r in cand[1:]:
                if r[col] % piv[col] == 0:
                    q = r[col] // piv[col]
                    r[:] = [a - q * b for a, b in zip(r, piv)]
                else:
                    g, x, y = _xgcd(piv[col], r[col])
                    pj, rj = piv[col] // g, r[col] // g
                    new_piv = [x * a + y * b for a, b in zip(piv, r)]
                    r[:] = [-rj * a + pj * b for a, b in zip(piv, r)]
                    piv[:] = new_piv
                if any(r):
                    rest.append(r)
            basis.append(piv)
        pool = rest
    for idx in range(len(basis) - 1, -1, -1):
        row = basis[idx]
        j = next(i for i, x in enumerate(row) if x)
        if row[j] < 0:
            row[:] = [-x for x in row]
        for above in basis[:idx]:
            q = above[j] // row[j]
            if q:
                above[:] = [a - q * b for a, b in zip(above, row)]
    return tuple(map(tuple, basis))


def hnf_coords(P, row) -> list | None:
    """Integer y with y P = row; None when row is outside the row lattice of P.

    P must be square and upper triangular with nonzero diagonal, which is
    what ``hnf_rows`` returns for a full-rank lattice, so forward
    substitution decides integrality one coordinate at a time.
    """
    cols = list(zip(*P))
    y = []
    for j, target in enumerate(row):
        q, rem = divmod(target - sum(map(mul, y, cols[j])), cols[j][j])  # y has j entries
        if rem:
            return None
        y.append(q)
    return y
