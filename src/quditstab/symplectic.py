"""The standard symplectic module and its submodules and quotients.

The ambient is always the standard module (Z/dZ)^(2n) with coordinates
(z_1..z_n, x_1..x_n) and the commutation form
phi(u, v) = sum_i u_z[i] * v_x[i] - u_x[i] * v_z[i] mod d.  Non-free
symplectic modules arise as quotients carrier/modulo and are handled on
representatives: the induced form is well defined because the modulo part
pairs to zero with the carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Optional, Sequence

from .errors import (
    Degenerate,
    InternalInvariant,
    NotFree,
    NotFreeSymplectic,
    NotIsotropic,
    NotLagrangian,
)
from .zmod import (
    _pivot,
    Submodule,
    Vector,
    unit_lifting_gcd,
    vec_add,
    vec_scale,
)


@dataclass(frozen=True)
class SymplecticSpace:
    """The standard module (Z/dZ)^(2n) with the commutation form."""

    n: int
    modulus: int

    @property
    def rank(self) -> int:
        return 2 * self.n

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        n = self.n
        return (sum(map(mul, u[:n], v[n:])) - sum(map(mul, u[n:], v[:n]))) % self.modulus

    def pairing_table(self, us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]]) -> list[list[int]]:
        """[[pairing(u, v) for v in vs] for u in us], from nonzero coordinates only.

        cols[k] lists (j, vs[j][k]) over the nonzero entries.  u's functional is
        read in place: u_k meets column k + n as +u_k for k < n, and column
        k - n as -u_k otherwise.  That is sum_k |U_k| * |V_k| products, U_k the
        us with u[k] != 0 and V_k the vs nonzero in k's partner column.
        """
        n = self.n
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.rank)]
        for j, v in enumerate(vs):
            for k in compress(range(len(v)), v):
                cols[k].append((j, v[k]))
        partner = [(cols[k + n], 1) for k in range(n)] + [(cols[k], -1) for k in range(n)]
        table = []
        for u in us:
            row = [0] * len(vs)
            for k in compress(range(len(u)), u):
                col, sign = partner[k]
                x = sign * u[k]
                for j, y in col:
                    row[j] += x * y
            table.append([t % self.modulus for t in row])
        return table

    def has_standard_gram(self, vs: Sequence[Sequence[int]]) -> bool:
        """vs pairs as the 2n unit vectors do: 1 at (i, n+i), d-1 at (n+i, i), 0 elsewhere."""
        n = self.n
        standard = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            standard[i][n + i] = 1
            standard[n + i][i] = self.modulus - 1
        return self.pairing_table(vs, vs) == standard

    def functional(self, u: Sequence[int]) -> Vector:
        """Coefficient row r with r . x == pairing(u, x) for all x: (-u_x | u_z)."""
        d, n = self.modulus, self.n
        return tuple(-x % d for x in u[n:]) + tuple(z % d for z in u[:n])


@dataclass(frozen=True)
class ElementaryBlock:
    """A hyperbolic pair spanning one elementary symplectic summand.

    pairing(e, f) == d / divisor and both e, f have order divisor in the
    (quotient) module the block was extracted from.
    """

    e: Vector
    f: Vector
    divisor: int


def perp(space: SymplecticSpace, sub: Submodule) -> Submodule:
    """Orthogonal complement {m : pairing(m, n) == 0 for all n in sub}."""
    d, m = space.modulus, space.rank
    if sub.ambient_rank != m or sub.modulus != d:
        raise ValueError("submodule does not live in this space")
    if not sub.generators:
        return Submodule.full(d, m)
    # pairing(x, g) == g . functional(x), and functional's inverse is -functional
    return Submodule(d, m, [space.functional(k) for k in sub.smith.kernel()])


def gram_blocks(space: SymplecticSpace, generators: Sequence[Sequence[int]]) -> list[ElementaryBlock]:
    """Split span(generators)/radical into orthogonal elementary symplectic blocks.

    One congruence reduction P G P^T = (+) [[0, s_i], [-s_i, 0]] of the
    alternating Gram matrix G of the generators (Newman, Integral Matrices,
    Thm IV.1), with smith_normal_form's pivot rule: the least (gcd(x, d), x),
    made s = gcd(x, d) by a unit before it eliminates, so at a prime power d
    each block takes one round (a dirty round or bad row lowers the least gcd).
    The radical is span & perp(span), and the product of the squared divisors
    is |span| / |radical|.  The s_i form a chain, so the blocks come out with
    divisors d / s_i non-increasing.
    """
    d = space.modulus
    # gens[i] is generator i after the row operations of P, and
    # gram[i][j] == pairing(gens[i], gens[j]); every step acts on a row and
    # then on the same column of gram, which keeps it alternating
    gens = [list(g) for g in generators]
    c = len(gens)
    gram = space.pairing_table(gens, gens)

    def swap(i, j):
        gens[i], gens[j] = gens[j], gens[i]
        gram[i], gram[j] = gram[j], gram[i]
        for row in gram:
            row[i], row[j] = row[j], row[i]

    def addmul(i, j, q):
        # g_i += q * g_j
        if not q % d:
            return
        gens[i] = [(x + q * y) % d for x, y in zip(gens[i], gens[j])]
        gram[i] = [(x + q * y) % d for x, y in zip(gram[i], gram[j])]
        for row in gram:
            if row[j]:
                row[i] = (row[i] + q * row[j]) % d

    def scale(i, w):
        gens[i] = [(w * x) % d for x in gens[i]]
        gram[i] = [(w * x) % d for x in gram[i]]
        for row in gram:
            row[i] = (w * row[i]) % d

    blocks: list[ElementaryBlock] = []
    k = 0
    while True:
        pos = _pivot(gram, k, c, c, d)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != k:
            swap(k, i0)
            if j0 == k:
                j0 = i0
        if j0 != k + 1:
            swap(k + 1, j0)
        p = gram[k][k + 1]
        s = math.gcd(p, d)
        if s != p:
            scale(k, unit_lifting_gcd(p, d))
        # clear pairing(e, g_l) with f and pairing(f, g_l) with e
        dirty = False
        for l in range(k + 2, c):
            addmul(l, k + 1, -(gram[k][l] // s))
            addmul(l, k, gram[k + 1][l] // s)
            if gram[k][l] or gram[k + 1][l]:
                dirty = True
        if dirty:
            continue
        bad = None
        if s != 1:
            for i in range(k + 2, c):
                if any(x % s for x in gram[i][k + 2:]):
                    bad = i
                    break
        if bad is not None:
            addmul(k, bad, 1)
            continue
        blocks.append(ElementaryBlock(e=tuple(gens[k]), f=tuple(gens[k + 1]), divisor=d // s))
        k += 2
    return blocks


def structure_decomposition(
    space: SymplecticSpace,
    carrier: Optional[Submodule] = None,
    modulo: Optional[Submodule] = None,
) -> list[ElementaryBlock]:
    """Split carrier/modulo into orthogonal elementary symplectic blocks.

    gram_blocks of the carrier generators, once modulo is checked to lie in the
    carrier and pair to zero with it.  Raises Degenerate when the induced form
    on carrier/modulo has a nonzero kernel.
    """
    carrier = carrier if carrier is not None else Submodule.full(space.modulus, space.rank)
    modulo = modulo if modulo is not None else Submodule.zero(space.modulus, space.rank)
    if not carrier.contains_module(modulo):
        raise ValueError("modulo must be contained in the carrier")
    if any(map(any, space.pairing_table(modulo.generators, carrier.generators))):
        raise ValueError("modulo must pair to zero with the carrier")
    blocks = gram_blocks(space, carrier.generators)
    # the radical holds modulo, so the blocks fill carrier/modulo iff the
    # form is nondegenerate there
    produced = 1
    for b in blocks:
        produced *= b.divisor * b.divisor
    if produced * modulo.cardinality != carrier.cardinality:
        raise Degenerate("induced form has a nonzero kernel")
    return blocks


def symplectic_basis(
    space: SymplecticSpace, carrier: Optional[Submodule] = None
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """A basis (e_1..e_n, f_1..f_n) with pairing(e_i, f_j) = delta_ij.

    Raises NotFreeSymplectic unless the carrier is free with a symplectic
    restricted form (equivalently, all block divisors equal d).
    """
    d = space.modulus
    try:
        blocks = structure_decomposition(space, carrier)
    except Degenerate as exc:
        raise NotFreeSymplectic(str(exc)) from exc
    if any(b.divisor != d for b in blocks):
        raise NotFreeSymplectic("block divisors below the modulus")
    es = tuple(b.e for b in blocks)
    fs = tuple(b.f for b in blocks)
    return es, fs


def extend_isotropic_basis(
    space: SymplecticSpace, basis: Sequence[Sequence[int]]
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Include a basis of a free isotropic submodule into a symplectic basis.

    Returns (e_1..e_n, f_1..f_n) with e_1..e_k equal to the given vectors.
    """
    d, m = space.modulus, space.rank
    es = [tuple(x % d for x in b) for b in basis]
    k = len(es)
    if any(map(any, space.pairing_table(es, es))):
        raise NotIsotropic("basis vectors do not pair to zero")
    sub = Submodule(d, m, es)
    if sub.invariant_factors != (d,) * k:
        raise NotFree("the given vectors are not a basis of a free submodule")

    fs: list[Vector] = []
    for j in range(k):
        # e . y == pairing(e, functional(y)), so sub's own Smith form solves for the duals
        y = sub.smith.solve(tuple(int(i == j) for i in range(k)))
        if y is None:
            raise NotFree("dual vector does not exist; ambient is not free symplectic")
        fs.append(space.functional(y))
    # make the duals mutually orthogonal, in index order; adding c * e_i to f_j
    # (i < j) moves no other pairing(f_l, f_j), so one table of the duals holds every c
    table = space.pairing_table(fs, fs)
    for j in range(k):
        for i in range(j):
            if table[i][j]:
                fs[j] = vec_add(fs[j], vec_scale(table[i][j], es[i], d), d)

    # (es, fs) has the standard Gram matrix, so |rest| == d^(2(n - k)) and rest
    # is free symplectic iff it splits into n - k blocks of divisor d
    rest = perp(space, Submodule(d, m, es + fs))
    blocks = gram_blocks(space, rest.generators)
    if len(blocks) != space.n - k or any(b.divisor != d for b in blocks):
        raise NotFree("the complement of the basis is not free symplectic")
    return tuple(es) + tuple(b.e for b in blocks), tuple(fs) + tuple(b.f for b in blocks)


@dataclass(frozen=True)
class LagrangianForm:
    """Adapted symplectic basis and divisors presenting a Lagrangian.

    The Lagrangian is generated by divisors[i] * basis_e[i] together with
    (d / divisors[i]) * basis_f[i], and the chain
    divisors[0] | divisors[1] | ... | d | divisors[0]^2 holds.
    """

    modulus: int
    basis_e: tuple[Vector, ...]
    basis_f: tuple[Vector, ...]
    divisors: tuple[int, ...]

    def reconstruct(self) -> Submodule:
        d = self.modulus
        gens = []
        for e, f, dr in zip(self.basis_e, self.basis_f, self.divisors):
            gens.append(vec_scale(dr, e, d))
            gens.append(vec_scale(d // dr, f, d))
        rank = len(self.basis_e[0]) if self.basis_e else 0
        return Submodule(d, rank, gens)


def _lagrangian_blocks(space: SymplecticSpace, lsub: Submodule) -> tuple[list, list, list[int]]:
    """Adapted basis (es, fs, divisors ascending) of the Lagrangian lsub of the standard space.

    Splits off the block of a maximal-order element, then recurses on the
    standard space of rank 2(n - 1) whose coordinates are a symplectic basis
    of that block's perp.  The block (e, f) is read from lsub's own Smith
    form: e is row 0 of v^-1 and f the functional of column 0 of v, so
    pairing(e, f) == e . (column 0 of v) == 1.
    """
    d, n = space.modulus, space.n
    if n == 0:
        return [], [], []
    if lsub.is_zero:
        raise NotLagrangian("zero module cannot be Lagrangian in a nonzero space")
    # the maximal-order quasi-basis element is diag[0] * e, and e, a row of
    # the invertible v^-1, has order d
    a = d // lsub.smith.diag[0]
    (e,) = lsub.smith.v_inv_rows([0])
    (x,) = lsub.smith.v_columns([(0, 1)])
    f = space.functional(x)
    if not lsub.contains(vec_scale(a, f, d)):
        raise NotLagrangian("a*f escapes the module; input is not Lagrangian")
    blocks = gram_blocks(space, perp(space, Submodule(d, 2 * n, [e, f])).generators)
    if len(blocks) != n - 1 or any(b.divisor != d for b in blocks):
        raise NotLagrangian("orthogonal complement is not free")
    # in the basis (block e's, block f's), x has coordinates pairing(x, f_i) and
    # -pairing(x, e_i); span(e, f) pairs to zero with every block, so these are
    # the coordinates of the generators' projections away from it
    basis = [b.e for b in blocks] + [b.f for b in blocks]
    table = space.pairing_table(lsub.generators, basis)
    coords = [row[n - 1:] + [-x % d for x in row[:n - 1]] for row in table]
    child = SymplecticSpace(n - 1, d)
    es_l, fs_l, divs = _lagrangian_blocks(child, Submodule(d, child.rank, coords))

    def ambient(y: Vector) -> Vector:
        return tuple(sum(c * b[k] for c, b in zip(y, basis)) % d for k in range(2 * n))

    es = [ambient(x) for x in es_l] + [f]
    fs = [ambient(x) for x in fs_l] + [vec_scale(-1, e, d)]
    return es, fs, divs + [a]


def lagrangian_canonical_form(space: SymplecticSpace, lagr: Submodule) -> LagrangianForm:
    """Adapted basis for a Lagrangian per the max-order splitting procedure.

    Raises NotLagrangian unless lagr equals its own perp.
    """
    d = space.modulus
    if perp(space, lagr) != lagr:
        raise NotLagrangian("module is not equal to its perp")
    es, fs, divs = _lagrangian_blocks(space, lagr)
    form = LagrangianForm(d, tuple(es), tuple(fs), tuple(divs))
    for x, y in zip(divs, divs[1:]):
        if y % x:
            raise NotLagrangian("divisor chain failed")
    if divs and (d % divs[-1] or (divs[0] * divs[0]) % d):
        raise NotLagrangian("divisor chain failed")
    if form.reconstruct() != lagr:
        raise NotLagrangian("reconstruction mismatch")
    return form


def classify_isotropic_block(
    space: SymplecticSpace, sub: Submodule
) -> tuple[int, int, tuple[Vector, Vector]]:
    """Present an isotropic submodule of a rank-2 block as <a*e, b*f>.

    Returns (a, b, (e, f)) with d | a*b, a | b, and (e, f) a symplectic
    basis of the block; a = d / (maximal element order), b is minimal
    with b*f in the submodule.  e is row 0 of v^-1 in sub's Smith form and
    f the functional of column 0 of v, so pairing(e, f) == 1.
    """
    d = space.modulus
    if space.rank != 2:
        raise ValueError("classify_isotropic_block needs a rank-2 space")
    if any(map(any, space.pairing_table(sub.generators, sub.generators))):
        raise NotIsotropic("submodule is not isotropic")
    if sub.is_zero:
        return d, d, ((1 % d, 0), (0, 1 % d))
    # the maximal-order quasi-basis element is a * e, with e of order d
    a = sub.smith.diag[0]
    (e,) = sub.smith.v_inv_rows([0])
    (x,) = sub.smith.v_columns([(0, 1)])
    f = space.functional(x)
    # the order of f modulo the submodule
    b = Submodule(d, 2, sub.generators + (f,)).cardinality // sub.cardinality
    if (a * b) % d or b % a:
        raise NotIsotropic("isotropy contract violated")
    if Submodule(d, 2, [vec_scale(a, e, d), vec_scale(b, f, d)]) != sub:
        raise InternalInvariant("symplectic.classify_block", "block presentation failed")
    return a, b, (e, f)
