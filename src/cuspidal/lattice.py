"""Even integral lattices, standard lattices and sums, signed permutations
of a basis, and lattice names and JSON.

A lattice is a free Z-module with a nondegenerate symmetric integer Gram
matrix; it is even when every vector has even self-pairing.  ADE root
lattices follow the negative definite convention (Gram = minus the
Cartan matrix), so positive definite callers must twist by -1
explicitly.  B(d), defined for d = 3 mod 4, is the rank-two negative
definite lattice with Gram [[-(d+1)/2, 1], [1, -2]].

A lattice is a plain record ``Lattice(gram, det, signature, even)``;
equal records have equal fields.  Only a Gram that arrives without its
invariants, a JSON lattice or the restricted form of a sublattice, is
eliminated, once, by ``from_gram`` (``exact.det_and_signature``).  Every
other lattice is built as a record with the invariants its construction
gives: a standard lattice from closed forms (``make_standard``), a direct
sum from its parts (``direct_sum``), a twist from the lattice it scales
(``twist``) and an overlattice from its base and Hermite basis
(``glue.overlattice``).

A Gram matrix is a tuple of int rows (``exact``), a vector a tuple of
its coordinates in the basis of its lattice, and pairings are
``exact.bilinear(L.gram, x, y)``.  Sublattices, orthogonal
complements, divisibility and rational splittings live in ``claims``,
which no command but ``verify example-c12`` imports; isometries,
reflections and spinor norms, which no command runs, live with the tests
in ``tests/group_claims.py``.
"""

import os
import re
from collections import namedtuple
from math import prod
from operator import itemgetter, mul

from .errors import BadParameter
from .exact import block_diagonal, det_and_signature, is_symmetric, scaled


class Lattice(namedtuple("Lattice", "gram det signature even")):
    """A lattice as a plain record: its Gram rows ``gram`` (a tuple of int
    tuples), its determinant ``det``, its signature ``signature`` (a pair)
    and its parity ``even``.  ``from_gram`` eliminates a Gram that arrives
    alone; every other construction fills the record with the invariants
    it already knows."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.gram)


def from_gram(gram) -> Lattice:
    """The lattice on the symmetric integer matrix ``gram``: its rows kept as
    a tuple of tuples, det and signature from one elimination
    (``exact.det_and_signature``)."""
    gram = tuple(map(tuple, gram))
    if not is_symmetric(gram):
        raise BadParameter("gram matrix must be symmetric")
    det, signature = det_and_signature(gram)
    return Lattice(gram, det, signature, all(row[i] % 2 == 0 for i, row in enumerate(gram)))


def twist(L: Lattice, t: int) -> Lattice:
    """L(t), the Gram of L scaled by the positive integer t."""
    if t < 1:
        raise BadParameter("twist parameter must be a positive integer")
    # L(t) keeps the signature, has det t^rank det L and is even when L or t is
    return Lattice(scaled(L.gram, t), t**L.rank * L.det, L.signature, L.even or t % 2 == 0)


# ---------------------------------------------------------------------------
# standard lattices and sums


def make_standard(kind: str, n: int | None = None) -> Lattice:
    """Standard lattices: U, A(k), D(h), E(6|7|8), B(d), rank1(n), each
    built afresh with its invariants in closed form (Conway & Sloane,
    SPLAG ch. 4): minus a Cartan matrix of rank n has det (-1)^n times
    n + 1 for A_n, 4 for D_n and 9 - n for E_n, and signature (0, n);
    U has det -1 and signature (1, 1); B(d) has det d and signature (0, 2);
    <n> has det n.  Every one is even."""
    if kind == "U":
        g, det, sig = [[0, 1], [1, 0]], -1, (1, 1)
    elif kind == "A":
        if n is None or n < 1:
            raise BadParameter("A(k) requires k >= 1")
        g, det, sig = _minus_cartan_chain(n), (-1) ** n * (n + 1), (0, n)
    elif kind == "D":
        if n is None or n < 4:
            raise BadParameter("D(h) requires h >= 4")
        g, det, sig = _minus_cartan_chain(n), (-1) ** n * 4, (0, n)
        g[n - 1][n - 2] = g[n - 2][n - 1] = 0
        g[n - 1][n - 3] = g[n - 3][n - 1] = 1
    elif kind == "E":
        if n not in (6, 7, 8):
            raise BadParameter("E(l) requires l in {6, 7, 8}")
        g, det, sig = _minus_cartan_chain(n), (-1) ** n * (9 - n), (0, n)
        g[n - 1][n - 2] = g[n - 2][n - 1] = 0
        g[n - 1][2] = g[2][n - 1] = 1
    elif kind == "B":
        if n is None or n % 4 != 3 or n < 3:
            raise BadParameter("B(d) requires d = 3 mod 4")
        g, det, sig = [[-(n + 1) // 2, 1], [1, -2]], n, (0, 2)
    elif kind == "rank1":
        if n is None or n == 0 or n % 2 != 0:
            raise BadParameter("rank1(n) requires a nonzero even integer")
        g, det, sig = [[n]], n, (1, 0) if n > 0 else (0, 1)
    else:
        raise BadParameter(f"unknown standard lattice kind {kind!r}")
    return Lattice(tuple(map(tuple, g)), det, sig, True)


def _minus_cartan_chain(n: int):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def U() -> Lattice:
    return make_standard("U")


def rank1(n: int) -> Lattice:
    return make_standard("rank1", n)


def direct_sum(*parts: Lattice) -> Lattice:
    """Orthogonal sum; its determinant is the product of those of the parts,
    its signature their sum, and it is even when every part is."""
    if not parts:
        raise BadParameter("empty direct sum")
    return Lattice(
        block_diagonal([p.gram for p in parts]), prod(p.det for p in parts),
        tuple(map(sum, zip(*(p.signature for p in parts)))),
        all(p.even for p in parts),
    )


# ---------------------------------------------------------------------------
# signed permutations


def check_signed_permutation(domain: Lattice, perm, signs) -> None:
    """Raise BadParameter unless e_j -> signs[j] e_perm[j] is an isometry.

    Its matrix M has M^T G M = (s_i s_j G[p_i][p_j]), so the form check
    compares G with its reindexed copy row by row, without a product: row i
    of the copy is s_i times the signs times one gather of row p_i at the
    indices p.  Entries whose row and column are both fixed with sign +1
    compare equal trivially, so only the rows of the moved indices are
    compared: by the symmetry of G they cover the pairs whose column is
    moved.  A form of rank 1 is kept by both signs.
    """
    n = domain.rank
    if sorted(perm) != list(range(n)) or len(signs) != n or not {1, -1}.issuperset(signs):
        raise BadParameter("not a signed permutation of the basis")
    if n < 2:
        return  # and an itemgetter of one index returns no tuple
    G = domain.gram
    gather = itemgetter(*perm)
    flips, neg = -1 in signs, [-s for s in signs]
    for i, (p, s) in enumerate(zip(perm, signs)):
        if p == i and s == 1:
            continue
        row = gather(G[p])
        if flips:
            row = tuple(map(mul, signs if s == 1 else neg, row))
        if G[i] != row:
            raise BadParameter("signed permutation does not preserve the form")


# ---------------------------------------------------------------------------
# names and JSON


_TERM_RE = re.compile(
    r"^(?P<count>\d+)?(?P<atom>U|A\d+|D\d+|E[678]|B\d+|<-?\d+>)(?:\((?P<twist>\d+)\))?$"
)


MAX_NAME_RANK = 1000


def parse_terms(name: str) -> list:
    """One (atom, twist) pair per summand of a name like "2E8+U(2)+<-2>":
    ``atom`` is "U", "A3", "<-2>" and so on, ``twist`` None or the t of "(t)".

    Raises BadParameter before any summand is listed on a term with
    multiplicity 0 or twist 0, and once the ranks add past ``MAX_NAME_RANK``:
    a Gram of that rank has fqf.ENUM_BOUND = 10^6 entries, and the paper's
    lattices have rank at most 24."""
    out, rank = [], 0
    for term in name.replace(" ", "").split("+"):
        if not term:
            raise BadParameter(f"empty term in lattice name {name!r}")
        m = _TERM_RE.match(term)
        if not m:
            raise BadParameter(f"cannot parse lattice term {term!r}")
        atom, t, count = m.group("atom"), m.group("twist"), int(m.group("count") or 1)
        if count == 0:
            raise BadParameter(f"lattice term {term!r} has multiplicity 0")
        if t is not None and int(t) == 0:
            raise BadParameter(f"lattice term {term!r} has twist 0")
        rank += count * (2 if atom[0] in "UB" else 1 if atom[0] == "<" else int(atom[1:]))
        if rank > MAX_NAME_RANK:
            raise BadParameter(f"lattice name {name!r} has rank above the cap {MAX_NAME_RANK}")
        out += [(atom, None if t is None else int(t))] * count
    return out


def parse_name(name: str) -> Lattice:
    """Parse lattice names like "U+U+E8+E8+<-2>+<-6>", "2E8+2A1" or "U(2)"."""
    parts = []
    for atom, t in parse_terms(name):
        if atom == "U":
            base = U()
        elif atom.startswith("<"):
            base = rank1(int(atom[1:-1]))
        else:
            base = make_standard(atom[0], int(atom[1:]))
        parts.append(base if t is None else twist(base, t))
    return direct_sum(*parts)


def lattice_from_json(text: str) -> Lattice:
    """Lattice from {"gram": [[...], ...]} with optional "rank" and "labels".

    A "labels" list names the basis vectors, one each; it is checked after
    the Gram, and nothing reads it."""
    import json

    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise BadParameter(f"lattice JSON does not parse: {exc}") from None
    gram = obj.get("gram") if isinstance(obj, dict) else None
    if not isinstance(gram, list) or not all(
        isinstance(row, list) and len(row) == len(gram)
        and all(type(x) is int for x in row)
        for row in gram
    ):
        raise BadParameter('lattice JSON needs a square integer matrix "gram"')
    rank = obj.get("rank", len(gram))
    if type(rank) is not int or rank != len(gram):
        raise BadParameter("rank does not match gram size")
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise BadParameter('lattice JSON "labels" must be a list')
    L = from_gram(gram)
    if labels is not None and len(labels) != L.rank:
        raise BadParameter("one label per basis vector required")
    return L


def load_lattice(spec: str) -> Lattice:
    """Accept a builtin name, a JSON string, or a path to a JSON file."""
    s = spec.strip()
    if s.startswith("{"):
        return lattice_from_json(s)
    try:
        return parse_name(s)
    except BadParameter:
        if not os.path.exists(s):
            raise
    try:
        with open(s, "r", encoding="utf-8") as fh:
            return lattice_from_json(fh.read())
    except UnicodeDecodeError:
        raise BadParameter(f"{s!r} is not a UTF-8 text file") from None
