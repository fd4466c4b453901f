"""Symbolic arithmetic in the n-qudit Pauli group.

Elements are kept in the normal form

    zeta^phase * X_1^a_1 Z_1^b_1 * ... * X_n^a_n Z_n^b_n

with X written before Z on each qudit.  Phases are exponents of zeta, the
primitive root of unity of order phase_modulus(d) (d for odd d, 2d for
even d); xi = zeta^2 enters only through the reordering rule
Z^b X^a = xi^(a*b) X^a Z^b.

Fields are canonical: 0 <= phase < phase_modulus(d), exponents in [0, d).  The
constructor reduces its input; PauliElement._reduced trusts it, and only this
module's arithmetic and the Kitaev operators, which reduce as they build, call it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InternalInvariant, json_int
from .zmod import Vector, vector_order

ELEMENT_TEXT = re.compile(
    r"^z\^(\d+)((?:\s*\*\s*X\d+\^\d+\s+Z\d+\^\d+)*)\s*$"
)
FACTOR_TEXT = re.compile(r"X(\d+)\^(\d+)\s+Z(\d+)\^(\d+)")


def phase_modulus(d: int) -> int:
    """Order of the adjoined root of unity: d for odd d, 2d for even d."""
    return d if d % 2 else 2 * d


@dataclass(frozen=True)
class PauliElement:
    d: int
    n: int
    phase: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1 or self.n < 0:
            raise ValueError("need d >= 1 and n >= 0")
        if len(self.a) != self.n or len(self.b) != self.n:
            raise ValueError("exponent vectors must have length n")
        db = phase_modulus(self.d)
        object.__setattr__(self, "phase", self.phase % db)
        object.__setattr__(self, "a", tuple(x % self.d for x in self.a))
        object.__setattr__(self, "b", tuple(x % self.d for x in self.b))

    @classmethod
    def _reduced(cls, d: int, n: int, phase: int, a: Vector, b: Vector) -> "PauliElement":
        """The element with fields already canonical, unchecked: never for outside input."""
        p = object.__new__(cls)
        p.__dict__.update(d=d, n=n, phase=phase, a=a, b=b)
        return p

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliElement":
        return cls(d, n, 0, (0,) * n, (0,) * n)

    @classmethod
    def scalar(cls, d: int, n: int, c: int) -> "PauliElement":
        return cls(d, n, c, (0,) * n, (0,) * n)

    @classmethod
    def x_op(cls, d: int, n: int, k: int, power: int = 1) -> "PauliElement":
        a = [0] * n
        a[k] = power
        return cls(d, n, 0, tuple(a), (0,) * n)

    @classmethod
    def z_op(cls, d: int, n: int, k: int, power: int = 1) -> "PauliElement":
        b = [0] * n
        b[k] = power
        return cls(d, n, 0, (0,) * n, tuple(b))

    def __mul__(self, other: "PauliElement") -> "PauliElement":
        return multiply(self, other)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "phase": self.phase, "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PauliElement":
        return cls(json_int(obj["d"], "d"), json_int(obj["n"], "n"),
                   json_int(obj["phase"], "phase"),
                   tuple(json_int(x, "a") for x in obj["a"]),
                   tuple(json_int(x, "b") for x in obj["b"]))

    def to_text(self) -> str:
        parts = [f"z^{self.phase}"]
        for k in range(self.n):
            parts.append(f"X{k + 1}^{self.a[k]} Z{k + 1}^{self.b[k]}")
        return " * ".join(parts)

    @classmethod
    def from_text(cls, d: int, text: str) -> "PauliElement":
        m = ELEMENT_TEXT.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse Pauli element: {text!r}")
        phase = int(m.group(1))
        factors = FACTOR_TEXT.findall(m.group(2))
        n = len(factors)
        a = [0] * n
        b = [0] * n
        for xi, xe, zi, ze in factors:
            if xi != zi:
                raise ValueError("mismatched qudit indices")
            k = int(xi) - 1
            if k < 0 or k >= n:
                raise ValueError("qudit indices must be 1..n in order")
            a[k] = int(xe)
            b[k] = int(ze)
        return cls(d, n, phase, tuple(a), tuple(b))

    def __repr__(self) -> str:
        return f"PauliElement(d={self.d}, n={self.n}, {self.to_text()!r})"


def _check_same_group(p: PauliElement, q: PauliElement) -> None:
    if p.d != q.d or p.n != q.n:
        raise DimensionMismatch(f"({p.d},{p.n}) vs ({q.d},{q.n})")


def multiply(p: PauliElement, q: PauliElement) -> PauliElement:
    """Normal form of p*q.

    Moving Z^b of p past X^a of q on the same qudit contributes xi^(a*b),
    i.e. zeta^(2*a*b).
    """
    _check_same_group(p, q)
    d = p.d
    phase = (p.phase + q.phase + 2 * sum(map(mul, p.b, q.a))) % phase_modulus(d)
    a = tuple([(x + y) % d for x, y in zip(p.a, q.a)])
    b = tuple([(x + y) % d for x, y in zip(p.b, q.b)])
    return PauliElement._reduced(d, p.n, phase, a, b)


def inverse(p: PauliElement) -> PauliElement:
    return power(p, -1)


def power(p: PauliElement, m: int) -> PauliElement:
    """p**m in closed form: per qudit (X^a Z^b)^m = xi^(a b m(m-1)/2) X^(ma) Z^(mb)."""
    d = p.d
    db = phase_modulus(d)
    m = m % db  # p**db is always the identity
    cross = sum(map(mul, p.a, p.b))
    phase = (p.phase * m + m * (m - 1) * cross) % db  # m(m-1) is even: xi^(ab m(m-1)/2) = zeta^(ab m(m-1))
    a = tuple([m * x % d for x in p.a])
    b = tuple([m * x % d for x in p.b])
    return PauliElement._reduced(d, p.n, phase, a, b)


def support(p: PauliElement) -> tuple[int, int, list, list]:
    """What word reads of a factor: phase c, a . b, and the nonzero (k, a_k) and (k, b_k)."""
    return (p.phase, sum(map(mul, p.a, p.b)),
            [(k, p.a[k]) for k in compress(range(p.n), p.a)],
            [(k, p.b[k]) for k in compress(range(p.n), p.b)])


def dth_power_phase(d: int, supp: tuple) -> int:
    """The phase of g^d, the scalar zeta^(d c + d(d-1) a.b), from supp = support(g) = (c, a.b, ...)."""
    return (d * supp[0] + d * (d - 1) * supp[1]) % phase_modulus(d)


def word(d: int, n: int, phase: int, factors: Iterable[tuple[tuple, int]]) -> PauliElement:
    """zeta^phase times the product of g^e over (support(g), e) pairs, in order.

    multiply and power unrolled over the supports, for factors of order
    dividing d (e == 0 mod d is skipped): with m = e mod phase_modulus(d), g^m
    adds m c + m(m-1) a.b to the phase, and moving it past the Z part b of the
    product so far adds 2 m (b . a).  Entries are reduced as they are touched.
    """
    db = phase_modulus(d)
    a, b = [0] * n, [0] * n
    for (c, ab, xs, zs), e in factors:
        if not e % d:
            continue
        m = e % db
        phase += m * (c + (m - 1) * ab + 2 * sum(b[k] * x for k, x in xs))
        for k, x in xs:
            a[k] = (a[k] + m * x) % d
        for k, z in zs:
            b[k] = (b[k] + m * z) % d
    return PauliElement._reduced(d, n, phase % db, tuple(a), tuple(b))


def is_scalar(p: PauliElement) -> bool:
    return not any(p.a) and not any(p.b)


def is_identity(p: PauliElement) -> bool:
    return p.phase == 0 and is_scalar(p)


def order(p: PauliElement) -> int:
    """Least m >= 1 with p**m equal to the identity."""
    m0 = vector_order(module_vector(p), p.d)
    residual = power(p, m0)
    db = phase_modulus(p.d)
    return m0 * (db // math.gcd(db, residual.phase))


def commutation_phase(p: PauliElement, q: PauliElement) -> int:
    """phi(tau(p), tau(q)) mod d; p*q == xi^value * q*p holds exactly."""
    _check_same_group(p, q)
    val = sum(pb * qa for pb, qa in zip(p.b, q.a)) - sum(pa * qb for pa, qb in zip(p.a, q.b))
    return val % p.d


def module_vector(p: PauliElement) -> Vector:
    """Image of p in (Z/dZ)^(2n): z-coordinates (the Z exponents) first."""
    return p.b + p.a


def from_module_vector(d: int, v: Sequence[int]) -> PauliElement:
    """The bare monomial X^a Z^b with module image v (phase zero)."""
    if len(v) % 2:
        raise ValueError("module vectors have even length")
    n = len(v) // 2
    return PauliElement(d, n, 0, tuple(v[n:]), tuple(v[:n]))


def order_matched_lift(d: int, v: Sequence[int]) -> PauliElement:
    """A Pauli element over v whose order equals the order of v in the module.

    The bare monomial works except when its power lands on -1, in which
    case multiplying by zeta^(d/order) fixes the order.
    """
    g = from_module_vector(d, v)
    m0 = vector_order(v, d)
    residual = power(g, m0).phase
    if residual == 0:
        return g
    if residual != d:  # only the -1 defect can occur
        raise InternalInvariant(
            "pauli.order_matched_lift", "unexpected residual phase in order-matched lift"
        )
    return PauliElement(d, g.n, d // m0, g.a, g.b)


def conjugate(q: PauliElement, p: PauliElement) -> PauliElement:
    """q * p * q^-1."""
    return multiply(multiply(q, p), inverse(q))
