"""Even overlattices from isotropic glue, roots, and ADE classification.

An isotropic subgroup H of the discriminant form of an even lattice R
determines the even overlattice L_H, the preimage of H in R*; its
discriminant form is H^perp/H (Brieskorn) and det L_H = det R / |H|^2.

Root enumeration uses exact Fincke-Pohst on integers: LLL
preconditioning, then a depth-first search whose remaining norm is
scaled by lcm(d[i] d[i+1]) over the leading minors d, so each coordinate
bound is the isqrt of an integer quotient.  Norm -2 vectors of a
negative definite lattice always form an ADE root system; components are
classified by the shape of their simple-root graph.

Whether a glue creates roots is decided without enumeration, from coset
minima (Conway-Sloane, SPLAG ch. 4 sections 6-8; Nikulin 1979, section
1).  For R = sum_i R_i and h in H, the shortest vectors of the coset
h + R have |norm| sum_i mu_i(h_i), with mu_i(c) the minimal |norm| of the
class c in R_i*/R_i.  Every nonzero class of an irreducible ADE lattice
contains a minuscule fundamental weight, which is shortest in its class,
so mu_i(c) is the least |(G_i^-1)_kk| over the fundamental weights
omega_k in c; a rank-1 summand <2m> has mu(k) = k'^2/|2m| with k' the
class k reduced to [0, |m|].  E is even, so for h != 0 the sum is an even
integer >= 2, and E has a root outside R exactly when some sum is 2
(``glue_adds_roots``).  Fincke-Pohst still runs for ``glue roots``,
``glue enum --roots-of-overlattice``, for Table 1 candidates none of
whose genus-matching glues keeps the declared roots, and in the tests.

The image of O(E) in O(A_E) is generated, for overlattices with full
root rank, by diagram automorphisms, permutations of isomorphic
components and sign flips of declared non-root rank-1 summands, all
restricted to the glue stabilizer; Weyl reflections act trivially on the
discriminant form and are omitted.  Each generator is a signed
permutation e_j -> s_j e_(p_j) of the base basis, so it is checked to be
an isometry entry by entry, G_ij = s_i s_j G_(p_i p_j), in O(n^2) and
without a matrix product (``Isometry.signed_permutation``).  Whether
this generated subgroup always equals the full image of tau is recorded
as an assumption, so dependent counts are reported as conditional.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt, lcm, prod

from .errors import (
    BadParameter,
    InternalError,
    NonIntegralGlue,
    NotIsotropic,
    NotNegativeDefinite,
    RootsNotFullRank,
)
from .exact import (
    IntMatrix, hnf_coords, hnf_rows, integral_gram_schmidt, lll_reduce, smith_normal_form,
)
from .fqf import (
    FiniteQuadraticForm,
    QuotientSource,
    apply_map,
    compose_maps,
    discriminant_form,
    identity_map,
    perp_quotient,
    project_to_quotient,
    subgroup_span,
    trivial_subgroup,
)
from .lattice import (
    Isometry, Lattice, LatticeVector, disc_action, make_standard, parse_name, parse_terms,
)


# ---------------------------------------------------------------------------
# root-spec strings and glue data


class Component(namedtuple("Component", "kind param offset")):
    """One summand of a root-spec base: ``kind`` "A", "D", "E" or "unit",
    ``param`` the ADE rank or the norm of a rank-1 summand, and ``offset``
    its first basis index."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return 1 if self.kind == "unit" else self.param


def parse_root_spec(spec: str) -> list:
    """Expand strings like "2E8+2A1" or "E6+A11+<-4>" into (kind, param) pairs."""
    out = []
    for atom, twist in parse_terms(spec):
        if atom[0] in "UB" or twist is not None:
            raise BadParameter(f"root spec {spec!r} is not a sum of A, D, E and <n> terms")
        out.append(("unit", int(atom[1:-1])) if atom[0] == "<" else (atom[0], int(atom[1:])))
    return out


def root_sum_base(spec: str):
    """Lattice and component layout for a root-spec string."""
    comps = []
    offset = 0
    for kind, param in parse_root_spec(spec):
        comps.append(Component(kind, param, offset))
        offset += comps[-1].rank
    return parse_name(spec), tuple(comps)


class GlueData(namedtuple("GlueData", "base components disc glue")):
    """A base lattice, its ``Component``s, its discriminant form ``disc`` and
    an isotropic subgroup ``glue`` of it."""

    __slots__ = ()

    def __new__(cls, base, components, disc, glue):
        if glue.form != disc:
            raise BadParameter("glue subgroup does not live in the base discriminant")
        if any(disc.q(x) != 0 for x in glue.elements):
            raise NotIsotropic("glue subgroup is not isotropic")
        return tuple.__new__(cls, (base, components, disc, glue))


def make_glue(spec: str, glue_gens=()) -> GlueData:
    base, comps = root_sum_base(spec)
    disc = discriminant_form(base)
    sub = (
        subgroup_span(disc, glue_gens) if glue_gens else trivial_subgroup(disc)
    )
    return GlueData(base, comps, disc, sub)


# ---------------------------------------------------------------------------
# overlattices


class Overlattice(namedtuple("Overlattice", "glue lattice base_in_overlattice")):
    """The overlattice of a ``GlueData``; the rows of ``base_in_overlattice``
    are the base basis in overlattice coordinates."""

    __slots__ = ()


def overlattice(gd: GlueData) -> Overlattice:
    """Even overlattice determined by the glue: preimage of H in R*."""
    base = gd.base
    n = base.rank
    # den times the glue lifts, with den the level of A_R, are integer rows
    den = gd.disc.level
    int_rows = [[den * int(i == j) for j in range(n)] for i in range(n)]
    int_rows += [list(gd.disc.source.scaled_lift(g, den)) for g in gd.glue.generators]
    # B = den * (overlattice basis in R coordinates), an integer matrix
    basis = IntMatrix(hnf_rows(int_rows))
    if basis.rows != n:
        raise NonIntegralGlue("glue lifts do not span a finite-index overlattice")
    scaled = basis @ base.gram @ basis.T
    gram = []
    for i, row in enumerate(scaled.data):
        if any(x % (den * den) for x in row):
            raise NonIntegralGlue("glue produces non-integral pairings")
        gram.append([x // (den * den) for x in row])
        if gram[i][i] % 2:
            raise NotIsotropic("glue produces an odd overlattice")
    # base basis in overlattice coordinates: the rows y of (B / den)^-1, y B = den e_i
    incl = []
    for i in range(n):
        y = hnf_coords(basis, [den * int(i == j) for j in range(n)])
        if y is None:
            raise NonIntegralGlue("base does not embed integrally")
        incl.append(y)
    return Overlattice(gd, Lattice(gram), IntMatrix(incl))


# ---------------------------------------------------------------------------
# short vectors (integer Fincke-Pohst)


def short_vectors(L: Lattice, norm: int) -> list:
    """All vectors of the given negative norm, one per {v, -v} pair.

    The representative kept has positive first nonzero coordinate in the
    LLL-reduced basis; results are sorted by original coordinates.
    """
    n = L.rank
    if L.signature != (0, n):
        raise NotNegativeDefinite("short vector enumeration needs a negative definite lattice")
    if norm >= 0:
        raise BadParameter("norm must be negative")
    if norm % 2 and L.even:
        return []
    red, T = lll_reduce(L.gram)
    # -red(x) = sum_i (d[i+1] / d[i]) (x_i + C_i / d[i+1])^2 with the integer
    # C_i = sum_{j > i} lam[j][i] x_j; times common = lcm(d[i] d[i+1]), term i
    # is scale[i] (d[i+1] x_i + C_i)^2 with scale[i] = common / (d[i] d[i+1])
    d, lam = integral_gram_schmidt((-red).data)
    common = lcm(*(d[i] * d[i + 1] for i in range(n)))
    scale = [common // (d[i] * d[i + 1]) for i in range(n)]

    sols = []
    x = [0] * n

    def dfs(i: int, rem: int):
        if i < 0:
            if rem == 0:
                sols.append(tuple(x))
            return
        c = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        di, si = d[i + 1], scale[i]
        r = isqrt(rem // si)
        # all x_i with |d[i+1] x_i + c| <= r
        for xi in range(-((r + c) // di), (r - c) // di + 1):
            x[i] = xi
            y = di * xi + c
            dfs(i - 1, rem - si * y * y)
        x[i] = 0

    dfs(n - 1, -norm * common)
    out = []
    seen = set()
    for s in sols:
        if all(v == 0 for v in s):
            continue
        lead = next(v for v in s if v != 0)
        rep = s if lead > 0 else tuple(-v for v in s)
        if rep in seen:
            continue
        seen.add(rep)
        out.append(tuple(int(v) for v in T.apply(rep)))
    out.sort()
    return [LatticeVector(L, coords) for coords in out]


# ---------------------------------------------------------------------------
# root systems


_ROOT_COUNTS = {"A": lambda k: k * (k + 1), "D": lambda h: 2 * h * (h - 1),
                "E": lambda l: {6: 72, 7: 126, 8: 240}[l]}


class RootSystem(namedtuple("RootSystem", "components total_roots")):
    """ADE type: ``components`` is a sorted tuple of (letter, rank)."""

    __slots__ = ()

    def spec_string(self) -> str:
        if not self.components:
            return "0"
        groups = []
        order = {"E": 0, "D": 1, "A": 2}
        for letter, rank in sorted(
            self.components, key=lambda c: (order[c[0]], -c[1])
        ):
            groups.append((letter, rank))
        parts = []
        i = 0
        while i < len(groups):
            j = i
            while j < len(groups) and groups[j] == groups[i]:
                j += 1
            count = j - i
            atom = f"{groups[i][0]}{groups[i][1]}"
            parts.append(atom if count == 1 else f"{count}{atom}")
            i = j
        return "+".join(parts)


def root_system_from_spec(spec: str) -> RootSystem:
    comps = []
    total = 0
    for kind, param in parse_root_spec(spec):
        if kind == "unit":
            continue
        comps.append((kind, param))
        total += _ROOT_COUNTS[kind](param)
    return RootSystem(tuple(sorted(comps)), total)


def root_system(L: Lattice) -> RootSystem:
    """ADE decomposition of the norm -2 vectors of a negative definite lattice."""
    # positive roots: first nonzero coordinate positive, in increasing
    # lexicographic order, which is compatible with addition; a positive
    # root is then simple exactly when it pairs >= 0 (negative definite
    # convention) with every simple root before it
    pos = []
    for v in short_vectors(L, -2):
        lead = next(x for x in v.coords if x)
        pos.append(v.coords if lead > 0 else tuple(-x for x in v.coords))
    pos.sort()
    simple = []
    gram_simple = []  # G s for each simple root s
    for a in pos:
        if all(sum(x * y for x, y in zip(a, gs)) >= 0 for gs in gram_simple):
            simple.append(a)
            gram_simple.append(L.gram.apply(a))

    m = len(simple)
    adj = {i: [] for i in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            if sum(x * y for x, y in zip(simple[i], gram_simple[j])):
                adj[i].append(j)
                adj[j].append(i)

    seen = set()
    comps = []
    for start in range(m):
        if start in seen:
            continue
        stack = [start]
        nodes = []
        seen.add(start)
        while stack:
            v = stack.pop()
            nodes.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(nodes))

    out = []
    for nodes in comps:
        out.append(_classify_component(nodes, adj))
    total = sum(_ROOT_COUNTS[letter](rank) for letter, rank in out)
    if total != 2 * len(pos):
        raise InternalError("root component counts do not match the enumeration")
    return RootSystem(tuple(sorted(out)), total)


def _classify_component(nodes, adj) -> tuple:
    n = len(nodes)
    node_set = set(nodes)
    deg = {v: sum(1 for w in adj[v] if w in node_set) for v in nodes}
    maxdeg = max(deg.values())
    if maxdeg <= 2:
        return ("A", n)
    if maxdeg == 3 and sum(1 for v in nodes if deg[v] == 3) == 1:
        center = next(v for v in nodes if deg[v] == 3)
        arms = []
        for nb in adj[center]:
            length = 1
            prev, cur = center, nb
            while True:
                nxt = [w for w in adj[cur] if w != prev and w in node_set]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            return ("D", n)
        if arms == [1, 2, 2]:
            return ("E", 6)
        if arms == [1, 2, 3]:
            return ("E", 7)
        if arms == [1, 2, 4]:
            return ("E", 8)
    raise InternalError("component is not a simply-laced Dynkin diagram")


# ---------------------------------------------------------------------------
# coset minima: roots created by a glue, without enumeration


@lru_cache(maxsize=None)
def _class_minima(kind: str, param: int) -> tuple:
    """Gram, class map and coset minima of one component R_i.

    Returns (G, rows, orders, N, minima).  With U G V = D the Smith form
    of G, a dual vector with pairings p = G v lies in the class with key
    (U p)_j mod d_j over the positions j with d_j > 1: v - w lies in R_i
    exactly when D^-1 U (G v - G w) is integral.  ``minima`` maps every
    nonzero key to N times the least |norm| in its class, N the exponent
    of R_i*/R_i.
    """
    if kind == "unit" and param > 0:
        raise NotNegativeDefinite("coset minima need a negative definite base")
    G = make_standard("rank1" if kind == "unit" else kind, param).gram
    snf = smith_normal_form(G)
    U, d, V = snf.left.data, snf.diag, snf.right.data
    rows = tuple(U[j] for j, dj in enumerate(d) if dj > 1)
    orders = tuple(dj for dj in d if dj > 1)
    N = d[-1]
    minima = {}
    if kind == "unit":
        # the class of k e / 2m is shortest at k' = min(k, N - k), N = |2m|
        for k in range(1, N):
            minima[_class_key(rows, orders, [k])] = min(k, N - k) ** 2
    else:
        r = G.rows
        for k in range(r):
            c = _class_key(rows, orders, [int(i == k) for i in range(r)])
            if any(c):
                # omega_k = G^-1 e_k has norm (G^-1)_kk, and N G^-1 = V (N D^-1) U
                norm = -sum(V[k][j] * (N // d[j]) * U[j][k] for j in range(r))
                minima[c] = min(norm, minima.get(c, norm))
    if len(minima) != prod(d) - 1:
        raise InternalError(f"a nonzero class of {kind}{param} contains no fundamental weight")
    return G, rows, orders, N, minima


def _class_key(rows, orders, pairings) -> tuple:
    return tuple(sum(u * x for u, x in zip(row, pairings)) % dj
                 for row, dj in zip(rows, orders))


def coset_minimum(kind: str, param: int, pairings) -> tuple:
    """(N mu, N): the least |norm| mu in the class of R_i*/R_i of the dual
    vector with the given integer pairings against the basis of R_i, with
    N the exponent of R_i*/R_i; ``param`` is as in ``Component``."""
    _, rows, orders, N, minima = _class_minima(kind, param)
    c = _class_key(rows, orders, pairings)
    return (minima[c] if any(c) else 0), N


def glue_adds_roots(gd: GlueData) -> bool:
    """True when the overlattice of the glue has a root outside the base.

    Works from the glue data alone: the coset h + R of each h != 0 in H
    has minimal |norm| sum_i mu_i(h_i), compared with 2 over the level.
    """
    if sum(c.rank for c in gd.components) != gd.base.rank:
        raise RootsNotFullRank("components do not span the base lattice")
    level = gd.disc.level
    blocks = []
    for comp in gd.components:
        G = _class_minima(comp.kind, comp.param)[0]
        sl = slice(comp.offset, comp.offset + comp.rank)
        if tuple(row[sl] for row in gd.base.gram.data[sl]) != G.data:
            raise InternalError("base Gram block differs from its component")
        blocks.append((comp, sl, G))
    for h in gd.glue.elements:
        if not any(h):
            continue
        lift = gd.disc.source.scaled_lift(h, level)  # level times a vector of R*
        total = 0  # level times the coset minimum
        for comp, sl, G in blocks:
            scaled = G.apply(lift[sl])
            if any(x % level for x in scaled):
                raise InternalError("glue lift is not a dual vector")
            num, N = coset_minimum(comp.kind, comp.param, [x // level for x in scaled])
            total += num * (level // N)
        if total == 0 or total % (2 * level):
            raise InternalError("glue coset minimum is not an even integer >= 2")
        if total == 2 * level:
            return True
    return False


# ---------------------------------------------------------------------------
# image of tau: O(E) -> O(A_E) via diagram/permutation/unit generators


class TauImage(namedtuple("TauImage", "quotient_form maps conditional note")):
    """Im tau on ``quotient_form`` A_E = H^perp/H; ``maps`` are the induced
    maps on A_E, as tuples of generator images."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.maps)


_TAU_NOTE = (
    "computed from diagram automorphisms, permutations of isomorphic "
    "components and unit sign flips stabilizing the glue; assumes these "
    "generate the full image of O(E) on the discriminant form"
)


def _diagram_permutations(comp: Component, n: int) -> list:
    """Index permutations generating the diagram automorphisms of one component."""
    off, k = comp.offset, comp.rank
    perms = []

    def swap(pairs):
        p = list(range(n))
        for a, b in pairs:
            p[a], p[b] = p[b], p[a]
        return p

    if comp.kind == "A" and k >= 2:
        perms.append(swap([(off + i, off + k - 1 - i) for i in range(k // 2)]))
    elif comp.kind == "D":
        if k == 4:
            # tips 0, 2, 3 around center 1
            perms.append(swap([(off + 2, off + 3)]))
            perms.append(swap([(off + 0, off + 2)]))
        else:
            perms.append(swap([(off + k - 2, off + k - 1)]))
    elif comp.kind == "E" and k == 6:
        perms.append(swap([(off + 0, off + 4), (off + 1, off + 3)]))
    return perms


def tau_generator_isometries(gd: GlueData) -> list:
    """Base-lattice isometries generating the non-Weyl automorphism candidates,
    each a signed permutation of the basis (``Isometry.signed_permutation``)."""
    base = gd.base
    n = base.rank
    if sum(c.rank for c in gd.components) != n:
        raise RootsNotFullRank("components do not span the base lattice")
    plus = (1,) * n
    gens = []
    for comp in gd.components:
        for p in _diagram_permutations(comp, n):
            gens.append((p, plus))
        if comp.kind == "unit":
            gens.append((range(n), tuple(-1 if i == comp.offset else 1 for i in range(n))))
    for i, ci in enumerate(gd.components):
        for cj in gd.components[i + 1:]:
            if (ci.kind, ci.param) != (cj.kind, cj.param):
                continue
            p = list(range(n))
            for t in range(ci.rank):
                p[ci.offset + t], p[cj.offset + t] = p[cj.offset + t], p[ci.offset + t]
            gens.append((p, plus))
            break  # adjacent transpositions of equals generate the symmetric group
    return [Isometry.signed_permutation(base, p, s) for p, s in gens]


def _disc_action(gd: GlueData, iso: Isometry) -> tuple:
    src = gd.disc.source
    return disc_action(iso, src.smith, src.kept)


def image_of_tau(gd: GlueData, quotient: FiniteQuadraticForm | None = None) -> TauImage:
    """Subgroup of O(A_E) induced by the computed automorphism candidates.

    ``quotient`` may be the already-computed perp quotient of the glue;
    it must carry quotient provenance so classes can be projected.
    """
    disc = gd.disc
    if quotient is None:
        quotient = perp_quotient(disc, gd.glue)
    gens = [_disc_action(gd, iso) for iso in tau_generator_isometries(gd)]
    # close the candidate actions into a finite subgroup of O(A_R)
    group = {identity_map(disc)}
    frontier = list(group)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose_maps(disc, g, cur)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    glue_set = set(gd.glue.elements)
    stab = [
        f
        for f in group
        if {apply_map(disc, f, h) for h in glue_set} == glue_set
    ]
    if not isinstance(quotient.source, QuotientSource):
        raise BadParameter("form is not a perp quotient")
    induced = set()
    for f in stab:
        images = tuple(
            project_to_quotient(quotient, apply_map(disc, f, z))
            for z in quotient.source.generator_lifts
        )
        induced.add(images)
    for f in induced:
        for x in quotient.elements():
            if quotient.q(apply_map(quotient, f, x)) != quotient.q(x):
                raise InternalError("induced map does not preserve q")
    return TauImage(quotient, tuple(sorted(induced)), True, _TAU_NOTE)
