"""Heisenberg extensions of finite Z/dZ-modules with alternating forms.

Groups are never materialised as element sets: a structure is carried as
block divisors, the CRT-canonical divisor chain, order-matched generator
lifts and the presentation data (orders plus form values).  Symplectic
automorphisms of the standard module lift to Pauli-group automorphisms by
order-matched lifting of the generator images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import InternalInvariant, NotSymplectic
from .pauli import (
    PauliElement,
    dth_power_phase,
    inverse,
    is_identity,
    module_vector,
    multiply,
    order_matched_lift,
    phase_modulus,
    power,
    support,
    word,
)
from .symplectic import SymplecticSpace, structure_decomposition
from .zmod import Submodule, ZdMatrix


def crt_canonical_chain(divisors: Sequence[int]) -> tuple[int, ...]:
    """The ascending divisibility chain of the divisors' direct sum, 1s dropped.

    Chinese-remainder recombination without factoring: replacing a pair by
    (gcd, lcm) keeps every prime's multiset of exponents, and one sweep over
    all pairs leaves each entry dividing the entries after it.
    """
    chain = list(divisors)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return tuple(x for x in chain if x > 1)


@dataclass(frozen=True)
class HeisenbergStructure:
    """Structural data of the Heisenberg extension of a symplectic module."""

    modulus: int
    block_divisors: tuple[int, ...]
    canonical_chain: tuple[int, ...]
    group_order: int
    lifts: tuple[PauliElement, ...]
    quasi_orders: tuple[int, ...]
    form_values: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "block_divisors": list(self.block_divisors),
            "canonical_chain": list(self.canonical_chain),
            "order": str(self.group_order),
            "lifts": [p.to_json_dict() for p in self.lifts],
        }


def heisenberg_structure(
    space: SymplecticSpace,
    carrier: Optional[Submodule] = None,
    modulo: Optional[Submodule] = None,
) -> HeisenbergStructure:
    """Block divisors, CRT chain and cardinality of Heis(carrier/modulo).

    #Heis = phase_modulus(d) * (prod divisors)^2, where the squared product is
    the module cardinality, or structure_decomposition raises Degenerate.
    Generator lifts are the ambient-order lifts of the block representatives.
    """
    d = space.modulus
    blocks = structure_decomposition(space, carrier, modulo)
    blocks = list(reversed(blocks))  # ascending divisors
    block_divisors = tuple(b.divisor for b in blocks)
    sq = 1
    for dv in block_divisors:
        sq *= dv * dv
    group_order = phase_modulus(d) * sq

    vectors = [v for b in blocks for v in (b.e, b.f)]
    orders = []
    for b in blocks:
        orders.extend((b.divisor, b.divisor))
    return HeisenbergStructure(
        modulus=d,
        block_divisors=block_divisors,
        canonical_chain=crt_canonical_chain(block_divisors),
        group_order=group_order,
        lifts=tuple(order_matched_lift(d, v) for v in vectors),
        quasi_orders=tuple(orders),
        form_values=tuple(map(tuple, space.pairing_table(vectors, vectors))),
    )


def verify_presentation(
    images: Sequence[PauliElement],
    orders: Sequence[int],
    form_values: Sequence[Sequence[int]],
    trivial: Optional[Callable[[PauliElement], bool]] = None,
) -> bool:
    """Check the defining relations on candidate generator images.

    form_values is the pairing table phi_kr, one row per image;
    Y_k^order_k and the commutators Y_k Y_r (zeta^(2 phi_kr) Y_r Y_k)^-1
    must be trivial; `trivial` defaults to exact identity and may be a
    membership test for relations that hold modulo a subgroup.
    """
    if trivial is None:
        trivial = is_identity
    t = len(images)
    if len(orders) != t or len(form_values) != t:
        raise ValueError("images, orders and form values must align")
    for k in range(t):
        if not trivial(power(images[k], orders[k])):
            return False
    for k in range(t):
        for r in range(t):
            if k == r:
                continue
            d, n = images[k].d, images[k].n
            scalar = PauliElement.scalar(d, n, 2 * form_values[k][r])
            rhs = multiply(scalar, multiply(images[r], images[k]))
            q = multiply(multiply(images[k], images[r]), inverse(rhs))
            if not trivial(q):
                return False
    return True


@dataclass(frozen=True)
class PauliAutomorphism:
    """Automorphism of the Pauli group fixing zeta, by generator images."""

    d: int
    n: int
    z_images: tuple[PauliElement, ...]
    x_images: tuple[PauliElement, ...]

    @cached_property
    def _supports(self) -> list:
        """The images' supports in the order apply reads p: X_k, then Z_k, per qudit."""
        return [support(q) for pair in zip(self.x_images, self.z_images) for q in pair]

    def apply(self, p: PauliElement) -> PauliElement:
        exponents = (e for pair in zip(p.a, p.b) for e in pair)
        return word(self.d, self.n, p.phase, zip(self._supports, exponents))

    def induced_matrix(self) -> ZdMatrix:
        """The symplectic map on module vectors, as a column-action matrix."""
        cols = [module_vector(p) for p in self.z_images] + [module_vector(p) for p in self.x_images]
        rows = list(zip(*cols))
        return ZdMatrix.from_rows(self.d, rows, cols=2 * self.n)

    def compose(self, other: "PauliAutomorphism") -> "PauliAutomorphism":
        """self after other."""
        return PauliAutomorphism(
            self.d,
            self.n,
            tuple(self.apply(p) for p in other.z_images),
            tuple(self.apply(p) for p in other.x_images),
        )


def lift_symplectic(space: SymplecticSpace, psi: ZdMatrix) -> PauliAutomorphism:
    """Lift a symplectic matrix on the standard module to a Pauli automorphism.

    Images are order-matched lifts of the mapped basis vectors.  The
    commutator relations are the columns' pairing table, as p*q ==
    xi^phi(tau p, tau q) q*p holds exactly; the order relation Y^d == 1 is
    the closed-form phase d c + d(d-1) a.b of each image.
    """
    d, n = space.modulus, space.n
    if psi.rows != 2 * n or psi.cols != 2 * n or psi.modulus != d:
        raise ValueError("matrix does not act on this module")
    # psi is symplectic iff its columns pair as the unit vectors do
    cols = [psi.col(k) for k in range(2 * n)]
    if not space.has_standard_gram(cols):
        raise NotSymplectic("matrix does not preserve the form")
    aut = PauliAutomorphism(d, n, tuple(order_matched_lift(d, c) for c in cols[:n]),
                            tuple(order_matched_lift(d, c) for c in cols[n:]))
    if any(dth_power_phase(d, supp) for supp in aut._supports):
        raise InternalInvariant(
            "heisenberg.lift_symplectic", "lifted images violate the presentation"
        )
    return aut
