"""Seeded inputs for the benchmark, each with answers known from its construction.

Nothing here asks the analysis engine for an answer.  Group cases are built
block by block in a random symplectic basis, so their cardinality, protected
dimension, invariant-factor chain, classification and the membership of every
query follow from the construction.  Torus cases are fixed and use the surface
code's known answers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

COMPOSITE_NS = (4, 8, 12)
F, S, G = "FREE", "SHIFTED_FREE", "GENERAL"
# d by prime factorisation, with the planned kind at each n in COMPOSITE_NS.
# Each d meets every kind once and each n meets every kind at least twice.  Of
# such plans this one is the cheapest, which keeps a pass near 17 s: FREE at
# d = 2^64, n = 12 alone would add about 3 s of canonicalisation.
COMPOSITE_DS = (
    ({2: 2, 3: 1}, (S, G, F)),                                      # 12
    ({2: 3, 3: 2, 5: 1}, (G, F, S)),                                # 360
    ({2: 4, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1}, (F, S, G)),            # 720720
    ({2: 16}, (G, F, S)),                                           # prime power
    ({2: 64}, (F, S, G)),                                           # prime power
    ({2: 20, 3: 10, 5: 5}, (F, S, G)),                              # mixed
    ({1000003: 1, 1000033: 1}, (S, G, F)),                          # semiprime
)
QUERIES_PER_GROUP = 16

# the hard case of the factoring loop: analyze has a short deadline on it
PROBE_D = 1000000007 * 998244353

TORUS_LADDER = [(2, L) for L in (3, 4, 5)] + [(12, L) for L in (3, 4, 5)] + [
    (6, L) for L in (3, 4, 5, 6)]
TWIST_D = 4
TWIST_LS = (3, 4, 5)


@dataclass
class GroupCase:
    """A group with everything analyze, canonicalize and membership must return."""

    name: str
    d: int
    n: int
    gens: list
    kind: str
    rank: Optional[int]
    dim: int
    cardinality: Optional[int] = None
    divisors: Optional[tuple] = None  # exact quotient divisors, when known
    chain: Optional[tuple] = None
    queries: list = field(default_factory=list)
    expected: list = field(default_factory=list)
    deadline_s: float = 60.0


@dataclass
class TorusCase:
    """Kitaev model on the L1 x L2 torus, optionally with a two-pair twist."""

    name: str
    d: int
    rows: int
    cols: int
    graph: object
    twist: Optional[tuple] = None  # (source, [ShiftPair, ...])
    deadline_s: float = 60.0

    @property
    def n(self) -> int:
        return len(self.graph.edges)

    @property
    def dim(self) -> int:
        dim = self.d**2
        for pair in (self.twist[1] if self.twist else ()):
            dim *= pair.a * pair.b // self.d
        return dim


def invariant_chain(divisors) -> tuple:
    """Invariant factors of the sum of Z_q over the divisors, by gcd/lcm steps."""
    xs = [q for q in divisors if q > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                g = math.gcd(xs[i], xs[j])
                pair = (g, xs[i] // g * xs[j])
                if pair != (xs[i], xs[j]):
                    xs[i], xs[j] = pair
                    changed = True
    return tuple(x for x in xs if x > 1)


# -- symplectic bookkeeping in the standard form, vectors as (z | x) --------

def omega(u, v, n: int) -> int:
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))


def random_symplectic_basis(rng: random.Random, d: int, n: int):
    """(e_1..e_n, f_1..f_n) with omega(e_i, f_j) = delta_ij, by random transvections."""
    basis = [tuple(1 if i == k else 0 for i in range(2 * n)) for k in range(2 * n)]
    for _ in range(2 * n + 4):
        v = tuple(rng.randrange(d) for _ in range(2 * n))
        basis = [_transvect(u, v, omega(u, v, n), d) for u in basis]
    es, fs = basis[:n], basis[n:]
    if any(omega(es[i], fs[j], n) % d != (i == j) for i in range(n) for j in range(n)):
        raise RuntimeError("transvections broke the symplectic basis")
    return es, fs


def _transvect(u, v, c: int, d: int) -> tuple:
    return tuple((x + c * y) % d for x, y in zip(u, v))


def _divisors(factors: dict) -> list:
    out = [1]
    for p, e in factors.items():
        out = [x * p**k for x in out for k in range(e + 1)]
    return sorted(out)


def _block(rng, kind_of_block: str, d: int, proper: list, scaled: int):
    """(scale of e, scale of f, quotient divisor, block cardinality); scale 0 = absent.

    Every "scaled" block of a group uses the same scale: at d = pq, scales p
    and q together would make the image free and the group FREE.
    """
    if kind_of_block == "none":
        return 0, 0, d, 1
    if kind_of_block == "e":
        return 1, 0, 1, d
    if kind_of_block == "shift":
        # a shared prime in a and d/a keeps <a e, (d/a) f> from being free
        a = rng.choice([x for x in proper if math.gcd(x, d // x) > 1] or proper)
        return a, d // a, 1, d
    if kind_of_block == "scaled":
        return scaled, 0, scaled, d // scaled
    # twist: b = (d/a) m with 1 < m < a and m | a, so d | ab and ab = dm > d
    a = rng.choice([x for x in proper if _has_middle_divisor(x, proper)])
    m = rng.choice([x for x in proper if 1 < x < a and a % x == 0])
    b = d // a * m
    return a, b, m, (d // a) * (d // b)


def _has_middle_divisor(a: int, proper: list) -> bool:
    return any(1 < x < a and a % x == 0 for x in proper)


def _block_plan(kind: str, n: int, proper: list) -> list:
    """Block kinds for one group: fixed counts per kind, so every seed does the same work."""
    quarter = max(1, n // 4)
    if kind == "FREE":
        plan = ["e"] * (n // 2)
    elif kind == "SHIFTED_FREE":
        plan = ["shift"] * quarter + ["e"] * quarter
    else:
        twist = any(_has_middle_divisor(a, proper) for a in proper)
        plan = ["scaled", "twist" if twist else "scaled"] + ["e"] * quarter
    return plan + ["none"] * (n - len(plan))


def _expected_kind(factors: dict, orders: list, chain: tuple, n: int):
    """Classification and rank of a group whose image is the sum of Z_o over orders.

    The image is free exactly when, for every prime, each order carries either
    none or all of d's power of that prime, and every prime is carried by the
    same number of orders.
    """
    full_counts = set()
    for p, e in factors.items():
        vals = [_valuation(o, p) for o in orders]
        if any(0 < v < e for v in vals):
            full_counts = None
            break
        full_counts.add(vals.count(e))
    if full_counts is not None and len(full_counts) == 1:
        return "FREE", full_counts.pop()
    d = math.prod(p**e for p, e in factors.items())
    if all(x == d for x in chain):
        return "SHIFTED_FREE", n - len(chain)
    return "GENERAL", None


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def group_case(lib, rng: random.Random, factors: dict, n: int, kind: str) -> GroupCase:
    P = lib.pauli
    d = math.prod(p**e for p, e in factors.items())
    proper = _divisors(factors)[1:-1]
    es, fs = random_symplectic_basis(rng, d, n)
    gens, coords = [], []  # coords[j] = (block, "e" or "f", scale, order)
    dim, card = 1, 1
    divisors = []
    plan = _block_plan(kind, n, proper)
    rng.shuffle(plan)
    scaled = rng.choice(proper)
    for r, block_kind in enumerate(plan):
        a, b, q, c = _block(rng, block_kind, d, proper, scaled)
        dim *= q
        card *= c
        divisors.append(q)
        for side, scale, base in (("e", a, es[r]), ("f", b, fs[r])):
            if scale:
                vec = tuple(scale * x % d for x in base)
                order = d // math.gcd(scale, d)
                lift = P.order_matched_lift(d, vec)
                t = rng.randrange(order)  # an allowed xi power keeps the group scalar-free
                gens.append(P.multiply(P.PauliElement.scalar(d, n, 2 * (d // order) * t), lift))
                coords.append((r, side, scale, order))
    if dim * card != d**n:
        raise RuntimeError("block bookkeeping broke the dimension identity")
    perm = list(range(len(gens)))
    rng.shuffle(perm)
    gens = [gens[i] for i in perm]
    coords = [coords[i] for i in perm]
    # one redundant word, so validate meets a nontrivial relation
    word = _word(P, d, n, gens, [rng.randrange(d) for _ in gens])
    gens.append(word)
    coords.append(None)
    chain = invariant_chain(divisors)
    expected_kind, rank = _expected_kind(factors, [c[3] for c in coords if c], chain, n)
    case = GroupCase(
        name=f"{kind.lower()}_d{d}_n{n}", d=d, n=n, gens=gens, kind=expected_kind, rank=rank,
        dim=dim, cardinality=card, chain=chain, deadline_s=30.0,
    )
    half = QUERIES_PER_GROUP // 2
    for _ in range(half):
        case.queries.append(_word(P, d, n, gens, [rng.randrange(d) for _ in gens]))
        case.expected.append(True)
    for k in range(QUERIES_PER_GROUP - half):
        if k % 2:  # a word off by a scalar: the image matches, only the phase tells
            scalar = P.PauliElement.scalar(d, n, rng.randrange(1, P.phase_modulus(d)))
            p = P.multiply(scalar, _word(P, d, n, gens, [rng.randrange(d) for _ in gens]))
        else:
            p = P.PauliElement(d, n, rng.randrange(P.phase_modulus(d)),
                               tuple(rng.randrange(d) for _ in range(n)),
                               tuple(rng.randrange(d) for _ in range(n)))
        case.queries.append(p)
        case.expected.append(_member_by_coordinates(P, p, gens, coords, es, fs, d, n))
    return case


def _word(P, d, n, gens, exps):
    out = P.PauliElement.identity(d, n)
    for g, e in zip(gens, exps):
        if e:
            out = P.multiply(out, P.power(g, e))
    return out


def _member_by_coordinates(P, p, gens, coords, es, fs, d, n) -> bool:
    """Membership read from the coordinates of p's image in the symplectic basis."""
    v = p.b + p.a
    xs = [omega(v, fs[r], n) % d for r in range(n)]
    ys = [omega(es[r], v, n) % d for r in range(n)]
    back = [sum(xs[r] * es[r][i] + ys[r] * fs[r][i] for r in range(n)) % d for i in range(2 * n)]
    if tuple(back) != tuple(x % d for x in v):
        raise RuntimeError("basis coordinates do not reconstruct the vector")
    need = {(r, "e"): xs[r] for r in range(n)}
    need.update({(r, "f"): ys[r] for r in range(n)})
    exps = [0] * len(gens)
    for j, c in enumerate(coords):
        if c is None:
            continue
        r, side, scale, _ = c
        value = need.pop((r, side))
        if value % scale:
            return False
        exps[j] = value // scale
    if any(need.values()):  # a coordinate no generator covers
        return False
    return _word(P, d, n, gens, exps) == p


def group_cases(lib, rng: random.Random) -> list:
    """One group per (n, d), of the kind COMPOSITE_DS plans for it."""
    return [group_case(lib, rng, factors, n, kinds[i])
            for i, n in enumerate(COMPOSITE_NS) for factors, kinds in COMPOSITE_DS]


def probe_case(lib) -> GroupCase:
    """<Z_1> at n=2 with d the product of two primes near 10^9."""
    P = lib.pauli
    d = PROBE_D
    return GroupCase(name="semiprime_probe", d=d, n=2, gens=[P.PauliElement.z_op(d, 2, 0)],
                     kind="FREE", rank=1, dim=d, cardinality=d, divisors=(d,),
                     chain=(d,), deadline_s=1.0)


# -- torus cases ----------------------------------------------------------

def two_pair_twist(lib, d: int):
    """Source (0,0); targets (0,1) and (1,0) with a=d, b=d/2 (defect c=2 each)."""
    K = lib.kitaev
    return ((0, 0), [K.ShiftPair((0, 1), d, d // 2, ((("h", 0, 0), False),)),
                     K.ShiftPair((1, 0), d, d // 2, ((("v", 0, 0), False),))])


def torus_case(lib, d, rows, cols, twisted=False):
    name = f"torus{rows}x{cols}_d{d}" + ("_twist" if twisted else "")
    return TorusCase(name=name, d=d, rows=rows, cols=cols,
                     graph=lib.kitaev.torus_grid_graph(rows, cols),
                     twist=two_pair_twist(lib, d) if twisted else None)


# The torus cases have no random part.  Shuffling the qudit order by the seed
# moved analyze's time by up to 15 % between seeds (Smith pivots change), which
# would hide a change's effect in seed noise.
def torus_ladder_cases(lib):
    return [torus_case(lib, d, L, L) for d, L in TORUS_LADDER] + [
        torus_case(lib, TWIST_D, L, L, twisted=True) for L in TWIST_LS]


def oracle_cases(lib):
    return [torus_case(lib, 2, 2, 3), torus_case(lib, 3, 2, 2),
            torus_case(lib, TWIST_D, 2, 2, twisted=True)]
