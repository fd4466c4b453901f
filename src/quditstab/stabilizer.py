"""Stabiliser subgroup validation and structural analysis.

A stabiliser group is an abelian, scalar-free subgroup of the Pauli group;
its cardinality is read off its module image (never by enumeration).  The
analysis computes the orthogonal complement of the image, decomposes the
quotient into elementary symplectic blocks, classifies the group as
FREE / SHIFTED_FREE / GENERAL and extracts logical operators as
order-matched lifts of the quotient block pairs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import (
    ContainsScalar,
    DimensionMismatch,
    InconsistentCharacter,
    InternalInvariant,
    NotAbelian,
    NotFree,
    json_int,
    json_object,
    json_str,
)
from .heisenberg import PauliAutomorphism, crt_canonical_chain, lift_symplectic
from .pauli import (
    PauliElement,
    commutation_phase,
    conjugate,
    dth_power_phase,
    is_identity,
    module_vector,
    multiply,
    order_matched_lift,
    phase_modulus,
    power,
    support,
    word,
)
from .symplectic import (
    SymplecticSpace,
    extend_isotropic_basis,
    gram_blocks,
    perp,
)
from .zmod import Submodule, Vector, ZdMatrix, vec_scale


MAX_REQUEST_N = 1024  # qudits a JSON request may ask for; kitaev build reads n from its graph


class StabilizerGroup:
    """Validated abelian scalar-free subgroup of the Pauli group."""

    def __init__(self, d: int, n: int, generators: Sequence[PauliElement]):
        if d < 2:
            raise ValueError(f"d = {d}: need d >= 2")
        self.d = d
        self.n = n
        self.generators = tuple(generators)
        for g in self.generators:
            if (g.d, g.n) != (d, n):
                raise DimensionMismatch(f"generator on ({g.d},{g.n}) in a ({d},{n}) group")
        self.tau_rows = tuple(module_vector(g) for g in self.generators)
        self.tau_image = Submodule._of_reduced(d, 2 * n, self.tau_rows)  # rows of checked elements
        self.space = SymplecticSpace(n, d)
        self._relations: Optional[tuple[Vector, ...]] = None
        self._supports = [support(g) for g in self.generators]

    @property
    def cardinality(self) -> int:
        return self.tau_image.cardinality

    def word(self, exponents: Sequence[int]) -> PauliElement:
        """The product of generators with the given exponents, in generator order."""
        if len(exponents) != len(self.generators):
            raise ValueError(f"{len(exponents)} exponents for {len(self.generators)} generators")
        return word(self.d, self.n, 0, zip(self._supports, exponents))

    def relation_kernel(self) -> tuple[Vector, ...]:
        """Generators of {lam : lam . tau(generators) == 0 mod d}, computed once.

        A unit vector per generator with a zero module image, then the left
        kernel of tau_image, read from its Smith form, in generator coordinates.
        """
        if self._relations is None:
            rows = self.tau_rows
            g = len(rows)
            units = [tuple(int(k == j) for k in range(g)) for j, row in enumerate(rows) if not any(row)]
            left = self.tau_image.transposed_smith.kernel()
            self._relations = tuple(units + [self._in_generator_coordinates(lam) for lam in left])
        return self._relations

    def _pairings_with(self, p: PauliElement) -> list[int]:
        """commutation_phase(p, g) for every generator g, as one pairing_table row."""
        if (p.d, p.n) != (self.d, self.n):
            raise DimensionMismatch(f"({p.d},{p.n}) vs ({self.d},{self.n})")
        return self.space.pairing_table([module_vector(p)], self.tau_rows)[0]

    def elements(self, limit: int = 4096) -> Iterator[PauliElement]:
        """Explicit enumeration, for small-instance cross checks only.

        H is scalar-free, so it has exactly one element over each vector of tau_image.
        """
        if self.cardinality > limit:
            raise ValueError(f"group too large to enumerate (> {limit})")
        for v in self.tau_image.enumerate_elements():
            yield self.element_over(v)

    def _in_generator_coordinates(self, lam: Sequence[int]) -> Vector:
        """Coefficients over tau_image's generators as exponents of all generators.

        tau_image drops generators with a zero module image; they get exponent 0.
        """
        coefs = iter(lam)
        return tuple(next(coefs) if any(row) else 0 for row in self.tau_rows)

    def element_over(self, v: Sequence[int]) -> Optional[PauliElement]:
        """The canonical element of H with module image v, or None.

        Well defined because any two solutions differ by a relation whose
        word is the identity (scalar-freeness); over the zero vector it is the identity, with no solve.
        """
        if len(v) == 2 * self.n and not any(v):
            return PauliElement.identity(self.d, self.n)
        lam = self.tau_image.coefficients_for(v)  # tau_image's cached membership solve
        return None if lam is None else self.word(self._in_generator_coordinates(lam))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "generators": [g.to_json_dict() for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StabilizerGroup":
        obj = json_object(obj, "request")
        d, n = json_int(obj["d"], "d"), json_int(obj["n"], "n")
        if n < 0:
            raise ValueError(f"n = {n}: need n >= 0")
        if n > MAX_REQUEST_N:
            raise ValueError(f"n = {n} exceeds the request limit {MAX_REQUEST_N}")
        gens = [
            _report_element({"phase": 0, **json_object(g, "generator")}, d, n, f"generators[{i}]")
            for i, g in enumerate(obj.get("generators", []))
        ]
        return validate(d, n, gens)


def validate(d: int, n: int, generators: Sequence[PauliElement]) -> StabilizerGroup:
    """Check the stabiliser conditions and build the group.

    Raises NotAbelian when two generators fail to commute, ContainsScalar
    when a relation among the module images produces a nontrivial scalar
    (including a generator power landing on a scalar).
    """
    group = StabilizerGroup(d, n, generators)
    rows = group.tau_rows
    # commutation_phase(p, q) == pairing(tau(p), tau(q)); report the first pair in row-major order
    for i, row in enumerate(group.space.pairing_table(rows, rows)):
        for j in range(i + 1, len(row)):
            if row[j]:
                raise NotAbelian((i, j), row[j])
    for j, supp in enumerate(group._supports):
        phase = dth_power_phase(d, supp)
        if phase:
            witness = tuple(d if k == j else 0 for k in range(len(rows)))
            raise ContainsScalar(witness, phase)
    for lam in group.relation_kernel():
        w = group.word(lam)
        if not is_identity(w):
            raise ContainsScalar(lam, w.phase)
    return group


def membership(group: StabilizerGroup, p: PauliElement) -> bool:
    """Exact membership: module image solvable and phases match."""
    cand = group.element_over(module_vector(p))
    return cand is not None and cand == p


def normalizer_membership(group: StabilizerGroup, p: PauliElement) -> bool:
    """p commutes with the group iff its image pairs to zero with tau(H)."""
    return not any(group._pairings_with(p))


def _read_in(obj, d: int, n: int, where: str) -> dict:
    """The JSON object obj, read in (d, n): its own "d" and "n", where given, must match."""
    obj = json_object(obj, where)
    own = (json_int(obj.get("d", d), f"{where}.d"), json_int(obj.get("n", n), f"{where}.n"))
    if own != (d, n):
        raise DimensionMismatch(f"{where} has (d, n) = {own}, not {(d, n)}")
    obj["d"], obj["n"] = d, n  # json_object's own copy
    return obj


def _report_element(obj, d: int, n: int, where: str) -> PauliElement:
    """A Pauli element of a request or report read in (d, n)."""
    return PauliElement.from_json_dict(_read_in(obj, d, n, where))


@dataclass(frozen=True)
class LogicalPair:
    """Conjugate pair of logical operators for one quotient block."""

    divisor: int
    z_like: PauliElement
    x_like: PauliElement

    def to_json_dict(self) -> dict:
        return {
            "divisor": self.divisor,
            "z": self.z_like.to_json_dict(),
            "x": self.x_like.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict, d: int, n: int, where: str) -> "LogicalPair":
        """Elements are read in the report's d and n; where names the pair in errors."""
        obj = json_object(obj, where)
        divisor = json_int(obj["divisor"], f"{where}.divisor")
        if divisor < 1:
            raise ValueError(f"divisor {divisor} is not positive")
        return cls(divisor, _report_element(obj["z"], d, n, f"{where}.z"),
                   _report_element(obj["x"], d, n, f"{where}.x"))


@dataclass(frozen=True)
class CssSplit:
    z_part: tuple[PauliElement, ...]
    x_part: tuple[PauliElement, ...]

    def to_json_dict(self) -> dict:
        return {
            "z_generators": [p.to_json_dict() for p in self.z_part],
            "x_generators": [p.to_json_dict() for p in self.x_part],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, d: int, n: int) -> "CssSplit":
        """Elements are read in the report's d and n."""
        def part(key: str) -> tuple[PauliElement, ...]:
            return tuple(_report_element(p, d, n, f"css.{key}[{i}]") for i, p in enumerate(obj[key]))

        return cls(part("z_generators"), part("x_generators"))


# the classifications StabilizerReport.classification writes, and the only ones its reader takes
_CLASSIFICATION = re.compile(r"(?P<kind>FREE|SHIFTED_FREE)\((?P<rank>0|[1-9][0-9]*)\)|GENERAL")


@dataclass(frozen=True)
class StabilizerReport:
    """Structural analysis output for one stabiliser group."""

    d: int
    n: int
    cardinality: int
    dim_protected: int
    quotient_divisors: tuple[int, ...]
    canonical_chain: tuple[int, ...]
    kind: str  # FREE | SHIFTED_FREE | GENERAL
    rank: Optional[int]
    logical_operators: tuple[LogicalPair, ...]
    css: Optional[CssSplit]

    @property
    def classification(self) -> str:
        if self.rank is None:
            return self.kind
        return f"{self.kind}({self.rank})"

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "cardinality": self.cardinality,
            "dim_protected": self.dim_protected,
            "quotient_divisors": list(self.quotient_divisors),
            "canonical_chain": list(self.canonical_chain),
            "classification": self.classification,
            "logical_operators": [p.to_json_dict() for p in self.logical_operators],
            "css": self.css.to_json_dict() if self.css else None,
        }

    @classmethod
    def from_json_dict(cls, obj: dict, d: int, n: int) -> "StabilizerReport":
        obj = _read_in(obj, d, n, "report")
        pairs = tuple(LogicalPair.from_json_dict(p, d, n, f"logical_operators[{i}]")
                      for i, p in enumerate(obj.get("logical_operators", [])))
        css = obj.get("css")
        css_obj = CssSplit.from_json_dict(json_object(css, "css"), d, n) if css else None
        cls_text = json_str(obj["classification"], "classification")
        match = _CLASSIFICATION.fullmatch(cls_text)
        if match is None:
            raise ValueError(f"classification must be FREE(r), SHIFTED_FREE(r) or GENERAL, got {cls_text!r}")
        kind = match["kind"] or cls_text
        rank = int(match["rank"]) if match["rank"] else None
        return cls(
            d=d,
            n=n,
            cardinality=json_int(obj["cardinality"], "cardinality"),
            dim_protected=json_int(obj["dim_protected"], "dim_protected"),
            quotient_divisors=tuple(json_int(x, "quotient_divisors") for x in obj["quotient_divisors"]),
            canonical_chain=tuple(json_int(x, "canonical_chain") for x in obj["canonical_chain"]),
            kind=kind,
            rank=rank,
            logical_operators=pairs,
            css=css_obj,
        )


def coset_order_matched_lift(group: StabilizerGroup, v: Sequence[int], coset_order: int) -> PauliElement:
    """A Pauli element over v whose coset_order-th power lies in the group.

    Starts from the ambient order-matched lift and multiplies by the
    smallest nonnegative zeta power fixing the residual scalar.
    """
    d = group.d
    db = phase_modulus(d)
    g = order_matched_lift(d, v)
    ga = power(g, coset_order)
    h = group.element_over(module_vector(ga))
    if h is None:
        raise ValueError("power of the lift does not map into the group image")
    # ga and h share a module vector, so ga h^-1 is the scalar zeta^(ga.phase - h.phase)
    target = (h.phase - ga.phase) % db
    gcd = math.gcd(coset_order, db)
    if target % gcd:
        raise InternalInvariant("analyze.lifts", "no zeta correction exists")
    x = (target // gcd) * pow(coset_order // gcd, -1, db // gcd) % (db // gcd)
    out = multiply(PauliElement.scalar(d, group.n, x), g)
    if power(out, coset_order) != h:
        raise InternalInvariant("analyze.lifts", "corrected lift does not reach the group")
    return out


def _classify(group: StabilizerGroup, divisors: Sequence[int]) -> tuple[str, Optional[int]]:
    d, n = group.d, group.n
    if group.tau_image.is_free:
        return "FREE", group.tau_image.rank
    if all(dv == d for dv in divisors):
        return "SHIFTED_FREE", n - len(divisors)
    return "GENERAL", None


def css_split(group: StabilizerGroup) -> Optional[CssSplit]:
    """Split into pure-Z and pure-X generators, or None if a generator mixes."""
    zs, xs = [], []
    for g in group.generators:
        if g.phase:
            return None
        za, xa = any(g.b), any(g.a)
        if za and xa:
            return None
        if za:
            zs.append(g)
        elif xa:
            xs.append(g)
    return CssSplit(tuple(zs), tuple(xs))


def analyze(group: StabilizerGroup) -> StabilizerReport:
    """Full structural report; see StabilizerReport."""
    d, n = group.d, group.n
    space = group.space
    blocks = list(reversed(gram_blocks(space, perp(space, group.tau_image).generators)))
    divisors = tuple(b.divisor for b in blocks)
    dim = 1
    for dv in divisors:
        dim *= dv
    # dim^2 == |perp(tau)| / |radical|, radical == perp(tau) & tau as perp(perp(tau)) == tau,
    # and |perp(tau)| == d^(2n) / |tau|: this holds iff radical == tau iff tau is
    # isotropic, which makes the blocks those of the quotient perp(tau)/tau
    if dim * group.cardinality != d**n:
        raise InternalInvariant("analyze.dimension", "dimension bookkeeping failed")
    kind, rank = _classify(group, divisors)
    pairs = []
    for b in blocks:
        e_op = coset_order_matched_lift(group, b.e, b.divisor)
        f_op = coset_order_matched_lift(group, b.f, b.divisor)
        if commutation_phase(e_op, f_op) != (d // b.divisor) % d:
            raise InternalInvariant("analyze.lifts", "logical pair has the wrong commutation phase")
        pairs.append(LogicalPair(b.divisor, e_op, f_op))
    lifts = [module_vector(op) for pair in pairs for op in (pair.z_like, pair.x_like)]
    if any(map(any, space.pairing_table(lifts, group.tau_rows))):
        raise InternalInvariant("analyze.lifts", "logical operator escapes the normaliser")
    return StabilizerReport(
        d=d,
        n=n,
        cardinality=group.cardinality,
        dim_protected=dim,
        quotient_divisors=divisors,
        canonical_chain=crt_canonical_chain(divisors),
        kind=kind,
        rank=rank,
        logical_operators=tuple(pairs),
        css=css_split(group),
    )


def free_symplectic_envelope(group: StabilizerGroup, report: StabilizerReport) -> Submodule:
    """The free symplectic submodule containing tau(H) as a Lagrangian.

    Defined for FREE and SHIFTED_FREE groups: the perp of the span of the
    logical operator images.
    """
    if report.kind not in ("FREE", "SHIFTED_FREE"):
        raise NotFree("envelope exists only for (shifted) free groups")
    d, n = group.d, group.n
    vecs = []
    for pair in report.logical_operators:
        vecs.append(module_vector(pair.z_like))
        vecs.append(module_vector(pair.x_like))
    return perp(group.space, Submodule(d, 2 * n, vecs))


@dataclass(frozen=True)
class CanonicalConjugation:
    """Clifford-level data conjugating a free group onto <Z_1..Z_k>."""

    symplectic_map: ZdMatrix
    automorphism: PauliAutomorphism
    phase_fix: PauliElement

    def apply(self, p: PauliElement) -> PauliElement:
        return conjugate(self.phase_fix, self.automorphism.apply(p))


def canonical_conjugation(group: StabilizerGroup) -> CanonicalConjugation:
    """Map a FREE(k) group exactly onto the subgroup generated by Z_1..Z_k.

    The symplectic map sends a free basis of tau(H) to (z_1..z_k); its
    order-matched automorphism lift turns the generators into xi^c Z_i,
    and a final conjugation by X_1^c1...X_k^ck removes the xi powers.
    """
    d, n = group.d, group.n
    if not group.tau_image.is_free:
        raise NotFree("canonical conjugation needs a free module image")
    basis = [vec for vec, _ in group.tau_image.quasi_basis()]
    k = len(basis)
    space = group.space
    es, fs = extend_isotropic_basis(space, basis)
    # beta is the inverse of the basis matrix: it sends e_i to z_i, f_i to x_i.
    # v = sum_i pairing(v, f_i) e_i + pairing(e_i, v) f_i, so its rows are the
    # functionals of -f_i, then of e_i; they invert the basis iff (es, fs)
    # pairs as the unit vectors do
    if not space.has_standard_gram(list(es) + list(fs)):
        raise InternalInvariant(
            "canonicalize.basis", "the pairing-read inverse does not invert the basis"
        )
    beta = ZdMatrix.from_rows(
        d,
        [space.functional(vec_scale(-1, f, d)) for f in fs] + [space.functional(e) for e in es],
        cols=2 * n,
    )
    aut = lift_symplectic(space, beta)

    a_exp = [0] * n
    for i in range(k):
        # beta sends basis[i] to z_i, so this is the element of the conjugated group over z_i
        elem = aut.apply(group.element_over(basis[i]))
        if module_vector(elem) != tuple(int(j == i) for j in range(2 * n)):
            raise InternalInvariant(
                "canonicalize.image", "a basis element does not map to its unit vector"
            )
        # elem == zeta^w Z_i with w even or d odd; solve xi^c == zeta^w
        w = elem.phase
        if d % 2 == 0:
            if w % 2:
                raise InternalInvariant(
                    "canonicalize.phase_fix", "unexpected odd phase on a conjugated generator"
                )
            a_exp[i] = (w // 2) % d
        else:
            a_exp[i] = (w * pow(2, -1, d)) % d
    fix = PauliElement(d, n, 0, tuple(a_exp), (0,) * n)
    return CanonicalConjugation(symplectic_map=beta, automorphism=aut, phase_fix=fix)


@dataclass(frozen=True)
class CharacterMap:
    """Character of the group: chi(h_j) = xi^values[j] on the generators."""

    values: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"values": list(self.values)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CharacterMap":
        obj = json_object(obj, "character")
        return cls(tuple(json_int(x, "values") for x in obj["values"]))


def validate_character(group: StabilizerGroup, chi: CharacterMap) -> None:
    d = group.d
    if len(chi.values) != len(group.generators):
        raise InconsistentCharacter("one value per generator required")
    for lam in group.relation_kernel():
        if sum(l * v for l, v in zip(lam, chi.values)) % d:
            raise InconsistentCharacter(f"relation {lam} violated")


def character_action(group: StabilizerGroup, chi: CharacterMap, p: PauliElement) -> CharacterMap:
    """The character shift (h.chi)(m) = chi(m) - phi(tau(h), m)."""
    validate_character(group, chi)
    d = group.d
    new_vals = tuple((v - c) % d for v, c in zip(chi.values, group._pairings_with(p)))
    return CharacterMap(new_vals)


def characters(group: StabilizerGroup) -> list[CharacterMap]:
    """All characters of the group (one per element of tau(H)).

    Every character is h -> xi^pairing(x, tau(h)) for some x, with values
    pairing(x, tau(h_j)) == functional(x) . tau(h_j); functional is a bijection,
    so the value vectors are the column span of the matrix whose rows are
    tau_rows.  Over Z/dZ a submodule is the annihilator of its annihilator, so
    that span is exactly the vectors that vanish on every relation.
    """
    span = Submodule(group.d, len(group.generators), zip(*group.tau_rows))
    out = [CharacterMap(v) for v in span.enumerate_elements()]
    if len(out) != group.cardinality:
        raise InternalInvariant("characters.count", "character count mismatch")
    return out
