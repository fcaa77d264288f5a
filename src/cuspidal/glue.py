"""Even overlattices from isotropic glue, roots, and ADE classification.

An isotropic subgroup H of the discriminant form of an even lattice R
determines the even overlattice L_H, the preimage of H in R*; its
discriminant form is H^perp/H (Brieskorn) and det L_H = det R / |H|^2.
``GlueData`` holds R, its components, A_R and the Smith transforms of R
that lift classes of A_R to R*, and the glue H is passed beside it:
``overlattice`` and ``glue_adds_roots`` each check once that H is an
isotropic subgroup of A_R, from its generators.  ``overlattice`` takes
the signature of L_H from R and its determinant from the Hermite basis it
builds, so no Gram here is eliminated; the one elimination left,
``exact.det_and_signature``, types each component of a root system by its
Cartan determinant.

Root enumeration uses exact Fincke-Pohst on integers: LLL
preconditioning, then a depth-first search whose remaining norm is
scaled by lcm(d[i] d[i+1]) over the leading minors d, so each coordinate
bound is the isqrt of an integer quotient.  Its leaf keeps the one of x
and -x with positive first nonzero reduced coordinate; one ``matmul`` by
the transposed LLL transform maps the kept rows back, each signed by its
first nonzero coordinate, so the sorted list, which ``root_system`` reads
as its positive roots, depends on the Gram alone, not on the LLL basis.
More than ``bound`` nodes (``--bound``) raise GroupTooLarge.  Norm -2
vectors of a negative definite lattice always form an ADE root system;
components come from the nonzero pairings of the simple roots and are
typed by rank and Cartan determinant (Bourbaki, Lie Groups and Lie
Algebras, ch. VI).

Whether a glue creates roots is decided without enumeration, from coset
minima (Conway-Sloane, SPLAG ch. 4 sections 6-8; Nikulin 1979, section
1).  For R = sum_i R_i and h in H, the shortest vectors of the coset
h + R have |norm| sum_i mu_i(h_i), with mu_i(c) the minimal |norm| of the
class c in R_i*/R_i.  Every nonzero class of an irreducible ADE lattice
contains a minuscule fundamental weight, which is shortest in its class,
so mu_i(c) is the least |norm| of the fundamental weights omega_j in c; a
rank-1 summand <-2m> has mu(k) = k'^2/|2m| on the k-th multiple of its
one class, with k' = min(k, |2m| - k).  Classes are read from pairings
with the basis of R by the one class map ``class_key`` of A_R, which is
linear: omega_j = G^-1 e_j has pairings e_j and norm
sum_i V[j][i] U[i][j] / d_i (U G V = D the Smith form of R), and h_i is
sum_g h_g c_g, for c_g the class of the slice on R_i of the pairings of
generator g.  E is even, so for h != 0 the sum is an even integer >= 2,
and E has a root outside R exactly when some sum is 2
(``glue_adds_roots``).  Fincke-Pohst still runs for ``glue roots``,
``glue enum --roots-of-overlattice``, for Table 1 candidates none of
whose genus-matching glues keeps the declared roots, and in the tests.

The image of O(E) in O(A_E) is computed, for overlattices with full root
rank, from the group generated by diagram automorphisms, permutations of
isomorphic components and sign flips of declared non-root rank-1
summands; Weyl reflections act trivially on the discriminant form and
are omitted.  Each generator is a signed permutation e_j -> s_j e_(p_j)
of the base basis, checked to be an isometry row by row,
G_ij = s_i s_j G_(p_i p_j), without a matrix product
(``lattice.check_signed_permutation``), and to be an involution, so it
moves pairings q to (s_j q_(p_j))_j.  Only the stabilizer of the glue H
acts on A_E = H^perp/H.  By Schreier's lemma
(Seress, Permutation Group Algorithms, section 4.1) it is generated by
t_gK^-1 g t_K, for K in the orbit of H, g a generator and t_K the word of
a Schreier tree carrying H to K, whose inverse is the reversed word; one
breadth-first search from H builds the orbit and the tree
(``_glue_orbit``), once per orbit that the choice of a glue visits, and
Im tau reads the chosen orbit from that search.  They are evaluated on
lifts of the generators of A_E only, checked to preserve q on those and b
on their pairs, and closed in O(A_E), and ``image_of_tau`` returns the
sorted maps.  Whether this group always gives the full image of tau is
recorded as an assumption, so dependent counts are reported as conditional.
"""

from collections import namedtuple
from itertools import count, groupby
from math import isqrt, lcm, prod
from operator import mod, mul

from .errors import BadParameter, GroupTooLarge, InternalError, SingularMatrix
from .exact import (
    apply, bilinear, det_and_signature, diagonal, hnf_rows, integral_gram_schmidt, lll_reduce,
    matmul, scaled,
)
from .fqf import (
    ENUM_BOUND,
    Form,
    FqfSubgroup,
    QuotientSource,
    apply_map,
    compose_maps,
    discriminant_form,
    identity_map,
    project_to_quotient,
    q_scaled,
    require_isotropic,
    smul,
)
from .lattice import (
    Lattice, check_signed_permutation, direct_sum, make_standard, parse_terms,
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


def _component_lattice(kind: str, param: int) -> Lattice:
    return make_standard("rank1" if kind == "unit" else kind, param)


def root_sum_base(spec: str):
    """Direct sum of standard lattices and component layout for a root-spec string."""
    comps = []
    offset = 0
    for kind, param in parse_root_spec(spec):
        comps.append(Component(kind, param, offset))
        offset += comps[-1].rank
    return direct_sum(*(_component_lattice(c.kind, c.param) for c in comps)), tuple(comps)


class GlueData(namedtuple("GlueData", "base components disc disc_source")):
    """A base lattice, its ``Component``s, its discriminant form ``disc`` and
    the ``fqf.LatticeSource`` of ``disc``, the one Smith form of the base;
    a glue is a subgroup of ``disc`` passed beside the record."""

    __slots__ = ()


def make_glue(spec: str) -> GlueData:
    """The base of ``spec``, its components, its discriminant form and the
    form's Smith provenance."""
    base, comps = root_sum_base(spec)
    return GlueData(base, comps, *discriminant_form(base))


def _require_glue(gd: GlueData, glue: FqfSubgroup) -> None:
    """Raise unless ``glue`` is an isotropic subgroup of the base discriminant."""
    if glue.form != gd.disc:
        raise BadParameter("glue subgroup does not live in the base discriminant")
    require_isotropic(glue, "glue subgroup")


# ---------------------------------------------------------------------------
# overlattices


def overlattice(gd: GlueData, glue: FqfSubgroup) -> Lattice:
    """Even overlattice of the base glued along ``glue``: preimage of H in R*.

    Its invariants come from the construction, with no elimination: the
    signature is the base's, and the basis B / den, for B the Hermite
    basis of den R + (den times the glue lifts), has Gram B G B^T / den^2,
    so det = det R (prod of the pivots of B)^2 / den^(2n)."""
    _require_glue(gd, glue)
    base = gd.base
    n = base.rank
    # den times the glue lifts, with den the level of A_R, are integer rows
    den = gd.disc.level
    int_rows = [[den * int(i == j) for j in range(n)] for i in range(n)]
    int_rows += [list(gd.disc_source.scaled_lift(g, den)) for g in glue.generators]
    # B = den * (overlattice basis in R coordinates), an integer matrix
    basis = hnf_rows(int_rows)
    if len(basis) != n:
        raise InternalError("glue lifts do not span a finite-index overlattice")
    gram = []
    for i, row in enumerate(matmul(matmul(basis, base.gram), tuple(zip(*basis)))):
        if any(x % (den * den) for x in row):
            raise InternalError("glue produces non-integral pairings")
        gram.append(tuple([x // (den * den) for x in row]))
        if gram[i][i] % 2:
            raise InternalError("glue produces an odd overlattice")
    det = base.det * prod(basis[i][i] for i in range(n)) ** 2 // den ** (2 * n)
    return Lattice(tuple(gram), det, base.signature, True)


# ---------------------------------------------------------------------------
# short vectors (integer Fincke-Pohst)


def short_vectors(L: Lattice, norm: int, bound: int = ENUM_BOUND) -> list:
    """All vectors of the given negative norm, one per {v, -v} pair, as
    sorted coordinate tuples with positive first nonzero coordinate, mapped
    back from the LLL basis by one ``matmul``.  More than ``bound`` search
    nodes raise GroupTooLarge."""
    n = L.rank
    if L.signature != (0, n):
        raise BadParameter("short vector enumeration needs a negative definite lattice")
    if norm >= 0:
        raise BadParameter("norm must be negative")
    if norm % 2 and L.even:
        return []
    red, T = lll_reduce(L.gram)
    # -red(x) = sum_i (d[i+1] / d[i]) (x_i + C_i / d[i+1])^2 with the integer
    # C_i = sum_{j > i} lam[j][i] x_j; times common = lcm(d[i] d[i+1]), term i
    # is scale[i] (d[i+1] x_i + C_i)^2 with scale[i] = common / (d[i] d[i+1])
    d, lam = integral_gram_schmidt(scaled(red, -1))
    common = lcm(*(d[i] * d[i + 1] for i in range(n)))
    scale = [common // (d[i] * d[i + 1]) for i in range(n)]

    below = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]  # lam[j][i], j > i
    found = []
    x = [0] * n
    nodes = count(1)

    def dfs(i: int, rem: int):
        if next(nodes) > bound:
            raise GroupTooLarge(f"short vector search exceeds enumeration bound {bound}")
        if i < 0:
            # x = 0 has rem = -norm * common > 0, so a leaf at rem 0 is nonzero
            if rem == 0 and next(filter(None, x)) > 0:
                found.append(x[:])
            return
        c = sum(map(mul, below[i], x[i + 1:]))
        di, si = d[i + 1], scale[i]
        r = isqrt(rem // si)
        # all x_i with |d[i+1] x_i + c| <= r
        for xi in range(-((r + c) // di), (r - c) // di + 1):
            x[i] = xi
            y = di * xi + c
            dfs(i - 1, rem - si * y * y)
        x[i] = 0

    dfs(n - 1, -norm * common)
    if not found:
        return []
    # back to the original basis, where each row is signed again
    return sorted(v if next(filter(None, v)) > 0 else tuple([-a for a in v])
                  for v in matmul(found, tuple(zip(*T))))


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
        order = {"E": 0, "D": 1, "A": 2}
        parts = []
        for (letter, rank), run in groupby(
            sorted(self.components, key=lambda c: (order[c[0]], -c[1]))
        ):
            times = len(list(run))
            parts.append(f"{letter}{rank}" if times == 1 else f"{times}{letter}{rank}")
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


def root_system(L: Lattice, bound: int = ENUM_BOUND) -> RootSystem:
    """ADE decomposition of the norm -2 vectors of a negative definite lattice,
    found by ``short_vectors`` within ``bound`` search nodes."""
    # positive roots, in the increasing lexicographic order of ``short_vectors``,
    # which is compatible with addition; a positive root is then simple exactly
    # when it pairs >= 0 (negative definite convention) with every simple root
    # before it
    pos = short_vectors(L, -2, bound)
    simple = []
    gram_simple = []  # G s for each simple root s
    for a in pos:
        if all(sum(map(mul, a, gs)) >= 0 for gs in gram_simple):
            simple.append(a)
            gram_simple.append(apply(L.gram, a))

    P = [[sum(map(mul, a, gs)) for gs in gram_simple] for a in simple]
    # each simple root joins every component it pairs with
    comps = []
    for i in range(len(simple)):
        joined = [c for c in comps if any(P[i][j] for j in c)]
        comps = [c for c in comps if c not in joined] + [sum(joined, [i])]
    out = [_classify_component([[P[i][j] for j in c] for i in c]) for c in comps]
    total = sum(_ROOT_COUNTS[letter](rank) for letter, rank in out)
    if total != 2 * len(pos):
        raise InternalError("root component counts do not match the enumeration")
    return RootSystem(tuple(sorted(out)), total)


def _classify_component(block) -> tuple:
    """(letter, rank) of a connected block of simple-root pairings, minus a
    Cartan matrix: of rank n, A_n has Cartan determinant n + 1, D_n 4
    (n >= 4) and E_n 9 - n (Bourbaki, plates I-VII)."""
    n = len(block)
    if any(block[i][j] not in (0, 1) for i in range(n) for j in range(n) if i != j):
        raise InternalError("component is not a simply-laced Dynkin diagram")
    try:
        det = (-1) ** n * det_and_signature(block)[0]
    except SingularMatrix:
        raise InternalError("component is not a simply-laced Dynkin diagram") from None
    if det == n + 1:
        return ("A", n)
    if det == 4 and n >= 4:
        return ("D", n)
    if n in (6, 7, 8) and det == 9 - n:
        return ("E", n)
    raise InternalError("component is not a simply-laced Dynkin diagram")


# ---------------------------------------------------------------------------
# coset minima: roots created by a glue, without enumeration


def _coset_minima(gd: GlueData) -> list:
    """(slice, part, minima) of each component R_i of the base.  ``minima``
    maps each nonzero class of R_i*/R_i in A_R, as ``LatticeSource.class_key``
    reads it, to level times the least |norm| in it: omega_j = G^-1 e_j has
    pairings e_j and, as level G^-1 = V (level D^-1) U for U G V = D, level
    times its norm is sum_i V[j][i] (level / d_i) U[i][j].  ``class_key`` is
    linear, so h has class ``part`` h mod the orders on R_i, where column g
    of ``part`` is sum_j p_g[j] class_key(e_j) over j on R_i, for p_g the
    pairings of generator g."""
    src = gd.disc_source
    U, d, V = src.smith.left, src.smith.diag, src.smith.right
    level = gd.disc.level
    scale = [level // di for di in d]
    classes = [src.class_key(e) for e in diagonal((1,) * gd.base.rank)]
    blocks = []
    for comp in gd.components:
        if comp.kind == "unit" and comp.param > 0:
            raise BadParameter("coset minima need a negative definite base")
        R = _component_lattice(comp.kind, comp.param)
        sl = slice(comp.offset, comp.offset + comp.rank)
        if tuple(row[sl] for row in gd.base.gram[sl]) != R.gram:
            raise InternalError("base Gram block differs from its component")
        minima = {}
        if comp.kind == "unit":
            # the class of k e / 2m is shortest at k' = min(k, N - k), N = |2m|
            N, j = -comp.param, comp.offset
            for k in range(1, N):
                minima[smul(gd.disc, k, classes[j])] = level // N * min(k, N - k) ** 2
        else:
            for j in range(sl.start, sl.stop):
                c = classes[j]
                if any(c):
                    norm = -sum(V[j][i] * scale[i] * U[i][j] for i in range(len(d)))
                    minima[c] = min(norm, minima.get(c, norm))
        if len(minima) != abs(R.det) - 1:
            raise InternalError(f"the classes read for {comp.kind}{comp.param} "
                                "do not fill its discriminant group")
        part = matmul(tuple(zip(*classes[sl])), tuple(zip(*[p[sl] for p in src.pairings])))
        blocks.append((sl, part, minima))
    return blocks


def glue_adds_roots(gd: GlueData, glue: FqfSubgroup, blocks) -> bool:
    """True when the overlattice of ``glue`` has a root outside the base.

    Works from the base and the glue alone: the coset h + R of each h != 0
    in H has minimal |norm| sum_i mu_i(h_i), compared with 2 over the level.
    ``blocks`` are the ``_coset_minima`` of the base, which give each h_i and
    depend on the base only; a caller that tries several glues builds them once.
    """
    if sum(c.rank for c in gd.components) != gd.base.rank:
        raise BadParameter("components do not span the base lattice")
    _require_glue(gd, glue)
    level, orders = gd.disc.level, gd.disc.orders
    for h in glue.elements:
        if not any(h):
            continue
        total = 0  # level times the coset minimum
        for _, part, minima in blocks:
            c = tuple(map(mod, apply(part, h), orders))
            if any(c):
                total += minima[c]
        if total == 0 or total % (2 * level):
            raise InternalError("glue coset minimum is not an even integer >= 2")
        if total == 2 * level:
            return True
    return False


# ---------------------------------------------------------------------------
# image of tau: O(E) -> O(A_E) via diagram/permutation/unit generators


class TauImage(namedtuple("TauImage", "maps")):
    """Im tau as its sorted ``maps`` on A_E, tuples of generator images;
    ``size``, their number, is what ``bench/spans.py`` sums."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.maps)


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


def _tau_signed_permutations(gd: GlueData) -> list:
    """(perm, signs) of each tau generator e_j -> signs[j] e_(perm[j])."""
    n = gd.base.rank
    if sum(c.rank for c in gd.components) != n:
        raise BadParameter("components do not span the base lattice")
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
    return gens


class _ActionImages(dict):
    """The action on A_R of one tau generator, given by its generator
    ``images``, as a dict from reduced elements to their images: an image is
    computed at its first lookup and kept for the one glue search."""

    __slots__ = ("disc", "images")

    def __init__(self, disc: Form, images):
        super().__init__()
        self.disc, self.images = disc, images

    def __missing__(self, x) -> tuple:
        y = self[x] = apply_map(self.disc, self.images, x)
        return y


def _generator_actions(gd: GlueData) -> tuple:
    """The ``_ActionImages`` of the tau generators (``_tau_signed_permutations``)
    on A_R.

    A generator g: e_j -> s_j e_(p_j), checked to be an isometric
    involution, has G g = g^T G, so it maps a dual vector with pairings q to
    one with pairings (s_m q_(p_m))_m: the image of generator i of A_R is
    the class of its pairings so moved (``LatticeSource.class_key``).
    """
    src = gd.disc_source
    actions = []
    for p, s in _tau_signed_permutations(gd):
        check_signed_permutation(gd.base, p, s)
        if any(p[p[j]] != j or s[p[j]] != s[j] for j in range(len(s))):
            raise InternalError("tau generator is not an involution")
        actions.append(_ActionImages(gd.disc, tuple(
            src.class_key([sm * q[pm] for pm, sm in zip(p, s)]) for q in src.pairings)))
    return tuple(actions)


def _glue_orbit(actions, glue: FqfSubgroup) -> tuple:
    """(glue, words, edges) of the orbit of ``glue`` under ``actions``, by one
    breadth-first search: ``words`` maps each glue K of the orbit (its sorted
    elements) to the generators, first applied first, carrying ``glue`` to K
    along a Schreier tree, and ``edges`` maps K to its images under the
    actions.  A search of glues runs it once per orbit, from the first member
    it meets, and hands the chosen orbit to ``image_of_tau``."""
    words, edges, queue = {glue.elements: ()}, {}, [glue.elements]
    for key in queue:
        edges[key] = tuple(tuple(sorted(map(memo.__getitem__, key))) for memo in actions)
        for g, image in enumerate(edges[key]):
            if image not in words:
                words[image] = words[key] + (g,)
                queue.append(image)
    return glue, words, edges


def image_of_tau(quotient: Form, source: QuotientSource, orbit, actions) -> TauImage:
    """Subgroup of O(A_E) induced by the stabilizer of the glue in the group
    of the tau generators (``_tau_signed_permutations``), from its Schreier
    generators.  That diagram automorphisms, permutations of isomorphic
    components and unit sign flips generate the full image of O(E) on the
    discriminant form is assumed, so the counts built on it are conditional.

    ``orbit`` is the ``_glue_orbit`` of the glue H under ``actions``, and
    ``quotient`` and its ``source`` are what ``perp_quotient`` returns for
    H: the source projects classes.  A map preserves q when it preserves q
    on the generators and b on their pairs, as in ``fqf.require_isotropic``.
    """
    _, words, edges = orbit
    lifts = source.generator_lifts
    ident = identity_map(quotient)
    schreier = {lifts}  # the distinct Schreier generators on the lifts
    fwd = {next(iter(words)): lifts}  # t_K of the lifts, K in tree order
    for key, word in words.items():
        for g, image in enumerate(edges[key]):
            xs = tuple(map(actions[g].__getitem__, fwd[key]))
            if words[image] == word + (g,):
                fwd[image] = xs
                continue
            for h in reversed(words[image]):  # t^-1 is the reversed word
                xs = tuple(map(actions[h].__getitem__, xs))
            schreier.add(xs)
    gens = {tuple(project_to_quotient(source, x) for x in xs) for xs in schreier} - {ident}
    group, queue = {ident}, [ident]
    for cur in queue:
        for g in gens:
            nxt = compose_maps(quotient, g, cur)
            if nxt not in group:
                group.add(nxt)
                queue.append(nxt)
    gram, level = quotient.gram, quotient.level
    for f in gens:  # then every product of them preserves q too
        for i, (y, e) in enumerate(zip(f, ident)):
            if q_scaled(quotient, y) != q_scaled(quotient, e) or any(
                    (bilinear(gram, y, z) - gram[i][j]) % level for j, z in enumerate(f[:i])):
                raise InternalError("induced map does not preserve q")
    return TauImage(tuple(sorted(group)))
