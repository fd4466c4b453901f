"""Alternating and symplectic forms on finite Z/dZ-modules.

The ambient is always a free module (Z/dZ)^m with the form given by a Gram
matrix.  Non-free symplectic modules arise as quotients carrier/modulo and
are handled on representatives: the induced form is well defined because
the modulo part pairs to zero with the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    Submodule,
    Vector,
    ZdMatrix,
    kernel_matrix,
    quotient_quasi_basis,
    solve_linear,
    vec_add,
    vec_scale,
    vec_sub,
    vector_order,
)


def standard_gram(n: int, d: int) -> ZdMatrix:
    """Gram matrix of the standard basis (z_1..z_n, x_1..x_n)."""
    rows = []
    for i in range(2 * n):
        row = [0] * (2 * n)
        if i < n:
            row[n + i] = 1 % d
        else:
            row[i - n] = (-1) % d
        rows.append(row)
    return ZdMatrix.from_rows(d, rows, cols=2 * n)


@dataclass(frozen=True)
class SymplecticSpace:
    """Free ambient module with an alternating form given by its Gram matrix.

    The nonzero Gram entries are listed once at construction, so pairing and
    functional cost one step per nonzero entry (2 * rank for the standard
    form) instead of a dense product.
    """

    gram: ZdMatrix
    # (i, j, x) for every nonzero entry, row by row, with x == gram[i][j] mod d
    # taken in (-d/2, d/2] so that the standard form multiplies by +-1
    _terms: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        if g.rows != g.cols:
            raise ValueError("Gram matrix must be square")
        d = g.modulus
        for i in range(g.rows):
            if g.entries[i][i] % d:
                raise ValueError("alternating form needs zero diagonal")
            for j in range(i + 1, g.cols):
                if (g.entries[i][j] + g.entries[j][i]) % d:
                    raise ValueError("Gram matrix must be antisymmetric")
        terms = tuple((i, j, x if 2 * x <= d else x - d)
                      for i, row in enumerate(g.entries) for j, x in enumerate(row) if x)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def standard(cls, n: int, d: int) -> "SymplecticSpace":
        space = cls(standard_gram(n, d))
        # the standard Gram matrix has determinant 1, so no determinant is needed
        object.__setattr__(space, "is_symplectic", True)
        return space

    @property
    def modulus(self) -> int:
        return self.gram.modulus

    @property
    def rank(self) -> int:
        return self.gram.rows

    @cached_property
    def is_symplectic(self) -> bool:
        return self.gram.is_invertible()

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        return sum(u[i] * x * v[j] for i, j, x in self._terms) % self.modulus

    def functional(self, u: Sequence[int]) -> Vector:
        """Coefficient row r with r . x == pairing(u, x) for all x."""
        d = self.modulus
        out = [0] * self.rank
        for i, j, x in self._terms:
            out[j] += u[i] * x
        return tuple(y % d for y in out)

    def full_module(self) -> Submodule:
        return Submodule.full(self.modulus, self.rank)

    def zero_module(self) -> Submodule:
        return Submodule.zero(self.modulus, self.rank)


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
    if not space.is_symplectic:
        raise ValueError("perp requires a symplectic ambient form")
    d, m = space.modulus, space.rank
    if sub.ambient_rank != m or sub.modulus != d:
        raise ValueError("submodule does not live in this space")
    if not sub.generators:
        return space.full_module()
    # row G g, which is the functional of -g: (G g) . x == pairing(x, g)
    rows = [space.functional(vec_scale(-1, g, d)) for g in sub.generators]
    return Submodule(d, m, kernel_matrix(ZdMatrix.from_rows(d, rows, cols=m)))


def structure_decomposition(
    space: SymplecticSpace,
    carrier: Optional[Submodule] = None,
    modulo: Optional[Submodule] = None,
) -> list[ElementaryBlock]:
    """Split carrier/modulo into orthogonal elementary symplectic blocks.

    Follows the maximal-order construction: take a maximal-order element m
    of the quotient, find a partner f with pairing d/order, split off the
    block and recurse on its orthogonal complement inside the carrier.
    Blocks are returned in extraction order (divisors non-increasing).

    Raises Degenerate when the induced form on carrier/modulo has a
    nonzero kernel.
    """
    d, m = space.modulus, space.rank
    carrier = carrier if carrier is not None else space.full_module()
    modulo = modulo if modulo is not None else space.zero_module()
    if not carrier.contains_module(modulo):
        raise ValueError("modulo must be contained in the carrier")
    for t in modulo.generators:
        for g in carrier.generators:
            if space.pairing(t, g):
                raise ValueError("modulo must pair to zero with the carrier")

    blocks: list[ElementaryBlock] = []
    gens = list(carrier.generators)
    quotient_size = None
    while True:
        qb = quotient_quasi_basis(tuple(gens), modulo)
        if quotient_size is None:
            quotient_size = 1
            for _, o in qb:
                quotient_size *= o
        if not qb:
            break
        e_rep, a = qb[-1]
        row = [space.pairing(e_rep, g) for g in gens]
        coeffs = solve_linear(ZdMatrix.from_rows(d, [row], cols=len(gens)), (d // a,))
        if coeffs is None:
            raise Degenerate("induced form has a nonzero kernel")
        f_rep = (0,) * m
        for c, g in zip(coeffs, gens):
            if c:
                f_rep = vec_add(f_rep, vec_scale(c, g, d), d)
        blocks.append(ElementaryBlock(e=e_rep, f=f_rep, divisor=a))
        rows = [
            [space.pairing(g, e_rep) for g in gens],
            [space.pairing(g, f_rep) for g in gens],
        ]
        new_gens = []
        for mu in kernel_matrix(ZdMatrix.from_rows(d, rows, cols=len(gens))):
            x = (0,) * m
            for c, g in zip(mu, gens):
                if c:
                    x = vec_add(x, vec_scale(c, g, d), d)
            if any(x):
                new_gens.append(x)
        gens = new_gens + list(modulo.generators)

    produced = 1
    for b in blocks:
        produced *= b.divisor * b.divisor
    if produced != quotient_size:
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
    if not space.is_symplectic:
        raise ValueError("ambient form must be symplectic")
    es = [tuple(x % d for x in b) for b in basis]
    k = len(es)
    for i in range(k):
        for j in range(k):
            if space.pairing(es[i], es[j]):
                raise NotIsotropic("basis vectors do not pair to zero")
    sub = Submodule(d, m, es)
    if sub.invariant_factors != (d,) * k:
        raise NotFree("the given vectors are not a basis of a free submodule")

    fs: list[Vector] = []
    if k:
        a_rows = [space.functional(e) for e in es]
        a_mat = ZdMatrix.from_rows(d, a_rows, cols=m)
        for j in range(k):
            target = tuple(1 if i == j else 0 for i in range(k))
            f = solve_linear(a_mat, target)
            if f is None:
                raise NotFree("dual vector does not exist; ambient is not free symplectic")
            fs.append(f)
        # make the duals mutually orthogonal, in index order
        for j in range(k):
            for i in range(j):
                c = space.pairing(fs[i], fs[j])
                if c:
                    fs[j] = vec_add(fs[j], vec_scale(c, es[i], d), d)

    spanned = Submodule(d, m, es + fs)
    rest = perp(space, spanned)
    try:
        more_e, more_f = symplectic_basis(space, rest)
    except NotFreeSymplectic as exc:  # cannot happen for valid input
        raise NotFree(str(exc)) from exc
    return tuple(es) + more_e, tuple(fs) + more_f


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


def _free_order_d_preimage(v: Vector, b: int, d: int) -> Vector:
    """e of order d with b * e == v, given that v has order d // b."""
    e0 = [x // b for x in v]
    a = d // b
    t = 0
    while True:
        e = tuple(x % d for x in ([e0[0] + a * t] + e0[1:])) if e0 else ()
        if vector_order(e, d) == d:
            return e
        t += 1
        if t > d:
            raise InternalInvariant("symplectic.free_preimage", "no free preimage found")


def _lagrangian_recursive(
    gram: ZdMatrix, l_coords: list[Vector]
) -> tuple[list[Vector], list[Vector], list[int]]:
    """Canonical form inside a free symplectic module given by gram.

    Returns (es, fs, divisors) in local coordinates, divisors ascending.
    """
    d = gram.modulus
    m = gram.rows
    if m == 0:
        return [], [], []
    space = SymplecticSpace(gram)
    lsub = Submodule(d, m, l_coords)
    qb = lsub.quasi_basis()
    if not qb:
        raise NotLagrangian("zero module cannot be Lagrangian in a nonzero space")
    mvec, a = qb[-1]
    b = d // a
    e = _free_order_d_preimage(mvec, b, d)
    f = solve_linear(ZdMatrix.from_rows(d, [space.functional(e)], cols=m), (1,))
    if f is None:
        raise NotLagrangian("no symplectic partner; input is not Lagrangian")
    if not lsub.contains(vec_scale(a, f, d)):
        raise NotLagrangian("a*f escapes the module; input is not Lagrangian")

    rows = [space.functional(e), space.functional(f)]
    w_basis = [
        q[0] for q in Submodule(d, m, kernel_matrix(ZdMatrix.from_rows(d, rows, cols=m))).quasi_basis()
    ]
    if len(w_basis) != m - 2 or any(vector_order(w, d) != d for w in w_basis):
        raise NotLagrangian("orthogonal complement is not free")
    if m > 2:
        w_mat = ZdMatrix.from_rows(d, w_basis, cols=m)
        w_mat_t = w_mat.transpose()
        sub_gram = w_mat @ gram @ w_mat_t
        l_rest = []
        for g in l_coords:
            # project away the block component, then express in the W basis
            ge = space.pairing(g, e)
            gf = space.pairing(g, f)
            g2 = vec_sub(g, vec_add(vec_scale(gf, e, d), vec_scale((-ge) % d, f, d), d), d)
            coords = solve_linear(w_mat_t, g2)
            if coords is None:
                raise NotLagrangian("module does not split along the block")
            l_rest.append(coords)
        es_l, fs_l, divs = _lagrangian_recursive(sub_gram, l_rest)
        es = [tuple(w_mat_t.mul_vector(x)) for x in es_l]
        fs = [tuple(w_mat_t.mul_vector(x)) for x in fs_l]
    else:
        es, fs, divs = [], [], []
    es.append(f)
    fs.append(vec_scale(-1, e, d))
    divs.append(a)
    return es, fs, divs


def lagrangian_canonical_form(space: SymplecticSpace, lagr: Submodule) -> LagrangianForm:
    """Adapted basis for a Lagrangian per the max-order splitting procedure.

    Raises NotLagrangian unless lagr equals its own perp.
    """
    d = space.modulus
    if perp(space, lagr) != lagr:
        raise NotLagrangian("module is not equal to its perp")
    if space.rank == 0:
        return LagrangianForm(d, (), (), ())
    es, fs, divs = _lagrangian_recursive(space.gram, list(lagr.generators))
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
    with b*f in the submodule.
    """
    d = space.modulus
    if space.rank != 2:
        raise ValueError("classify_isotropic_block needs a rank-2 space")
    if not space.is_symplectic:
        raise ValueError("the block form must be symplectic")
    for u in sub.generators:
        for v in sub.generators:
            if space.pairing(u, v):
                raise NotIsotropic("submodule is not isotropic")
    w = space.gram.entries[0][1]
    if sub.is_zero:
        winv = pow(w, -1, d) if d > 1 else 0
        return d, d, ((1 % d, 0), (0, winv))
    qb = sub.quasi_basis()
    mvec, c = qb[-1]
    a = d // c
    e = _free_order_d_preimage(mvec, a, d)
    f = solve_linear(ZdMatrix.from_rows(d, [space.functional(e)], cols=2), (1,))
    if f is None:
        raise NotIsotropic("no symplectic partner for the maximal-order element")
    b = next(k for k in range(1, d + 1) if d % k == 0 and sub.contains(vec_scale(k, f, d)))
    if (a * b) % d or b % a:
        raise NotIsotropic("isotropy contract violated")
    if Submodule(d, 2, [vec_scale(a, e, d), vec_scale(b, f, d)]) != sub:
        raise InternalInvariant("symplectic.classify_block", "block presentation failed")
    return a, b, (e, f)
