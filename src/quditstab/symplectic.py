"""The standard symplectic module and its submodules and quotients.

The ambient is always the standard module (Z/dZ)^(2n) with coordinates
(z_1..z_n, x_1..x_n) and the commutation form
phi(u, v) = sum_i u_z[i] * v_x[i] - u_x[i] * v_z[i] mod d.  Non-free
symplectic modules arise as quotients carrier/modulo and are handled on
representatives: the induced form is well defined because the modulo part
pairs to zero with the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Submodule,
    Vector,
    ZdMatrix,
    kernel_matrix,
    quotient_quasi_basis,
    solve_linear,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    vector_order,
)


@dataclass(frozen=True)
class SymplecticSpace:
    """The standard module (Z/dZ)^(2n) with the commutation form, paired in O(n)."""

    n: int
    modulus: int

    @classmethod
    def standard(cls, n: int, d: int) -> "SymplecticSpace":
        return cls(n, d)

    @property
    def rank(self) -> int:
        return 2 * self.n

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        n = self.n
        return (sum(map(mul, u[:n], v[n:])) - sum(map(mul, u[n:], v[:n]))) % self.modulus

    def functional(self, u: Sequence[int]) -> Vector:
        """Coefficient row r with r . x == pairing(u, x) for all x: (-u_x | u_z)."""
        d, n = self.modulus, self.n
        return tuple(-x % d for x in u[n:]) + tuple(z % d for z in u[:n])

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
    d, m = space.modulus, space.rank
    if sub.ambient_rank != m or sub.modulus != d:
        raise ValueError("submodule does not live in this space")
    if not sub.generators:
        return space.full_module()
    # the functional of -g: its row r has r . x == pairing(x, g)
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
        # modulo lies in the carrier and pairs to zero with e and f, so
        # span(new_gens) already contains it
        gens = new_gens

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
    space: SymplecticSpace, basis: ZdMatrix, l_coords: list[Vector]
) -> tuple[list[Vector], list[Vector], list[int]]:
    """Canonical form inside the free symplectic module spanned by basis's rows.

    A vector x in basis coordinates stands for x . basis in the ambient space,
    whose form it inherits.  Returns (es, fs, divisors) in basis coordinates,
    divisors ascending.
    """
    d, m = space.modulus, basis.rows
    if m == 0:
        return [], [], []
    basis_t = basis.transpose()

    def functional(x: Vector) -> Vector:
        return basis.mul_vector(space.functional(basis_t.mul_vector(x)))

    lsub = Submodule(d, m, l_coords)
    qb = lsub.quasi_basis()
    if not qb:
        raise NotLagrangian("zero module cannot be Lagrangian in a nonzero space")
    mvec, a = qb[-1]
    b = d // a
    e = _free_order_d_preimage(mvec, b, d)
    rows = [functional(e)]
    f = solve_linear(ZdMatrix.from_rows(d, rows, cols=m), (1,))
    if f is None:
        raise NotLagrangian("no symplectic partner; input is not Lagrangian")
    if not lsub.contains(vec_scale(a, f, d)):
        raise NotLagrangian("a*f escapes the module; input is not Lagrangian")

    rows.append(functional(f))
    w_basis = [
        q[0] for q in Submodule(d, m, kernel_matrix(ZdMatrix.from_rows(d, rows, cols=m))).quasi_basis()
    ]
    if len(w_basis) != m - 2 or any(vector_order(w, d) != d for w in w_basis):
        raise NotLagrangian("orthogonal complement is not free")
    if m > 2:
        w_mat = ZdMatrix.from_rows(d, w_basis, cols=m)
        w_mat_t = w_mat.transpose()
        l_rest = []
        for g in l_coords:
            # project away the block component, then express in the W basis;
            # the form is alternating, so pairing(g, e) == -(rows[0] . g)
            ge, gf = -vec_dot(rows[0], g, d), -vec_dot(rows[1], g, d)
            g2 = vec_sub(g, vec_add(vec_scale(gf, e, d), vec_scale(-ge, f, d), d), d)
            coords = solve_linear(w_mat_t, g2)
            if coords is None:
                raise NotLagrangian("module does not split along the block")
            l_rest.append(coords)
        es_l, fs_l, divs = _lagrangian_recursive(space, w_mat @ basis, l_rest)
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
    es, fs, divs = _lagrangian_recursive(
        space, ZdMatrix.identity(d, space.rank), list(lagr.generators)
    )
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
    for u in sub.generators:
        for v in sub.generators:
            if space.pairing(u, v):
                raise NotIsotropic("submodule is not isotropic")
    if sub.is_zero:
        return d, d, ((1 % d, 0), (0, 1 % d))
    qb = sub.quasi_basis()
    mvec, c = qb[-1]
    a = d // c
    e = _free_order_d_preimage(mvec, a, d)
    f = solve_linear(ZdMatrix.from_rows(d, [space.functional(e)], cols=2), (1,))
    if f is None:
        raise NotIsotropic("no symplectic partner for the maximal-order element")
    # the order of f modulo the submodule
    b = Submodule(d, 2, sub.generators + (f,)).cardinality // sub.cardinality
    if (a * b) % d or b % a:
        raise NotIsotropic("isotropy contract violated")
    if Submodule(d, 2, [vec_scale(a, e, d), vec_scale(b, f, d)]) != sub:
        raise InternalInvariant("symplectic.classify_block", "block presentation failed")
    return a, b, (e, f)
