"""Independent brute-force verification on the computational basis.

Every Pauli element acts on the d^n basis vectors as a permutation with a
root-of-unity phase, so eigenspaces and fixed spaces can be computed with
integer arithmetic only: phases are exponents of zeta throughout, never
complex numbers.

Orbits of the group action on basis indices are explored once; each orbit
carries the spanning-tree phases and the cycle-closure discrepancies, from
which the consistent characters (and hence all eigenspace dimensions) are
read off.  X parts act on indices as translations, so the orbits are the
cosets of T = orbit(0), whose least members form a mixed-radix grid read off
T.  One BFS of T gives a template replayed column by column from the grid:
one gather per tree edge fills its position in every orbit.  Each closure
edge is checked on every orbit and one pass checks that the replays cover
each index once, so they equal the plain BFS or raise InternalInvariant.  A
closure edge back to its own position has discrepancy phase[x] alone.  An
X-free generator's permutation is range(d^n), which fixes every index, so
its self-loops skip the member check; a phase takes one byte while 2d <= 256.

Every call represents each generator once, repeating whole tables off the
generator's support, and makes one scan, which serves the dimension, every
protected basis and the eigenspace histogram: each of them finds the one
orbit class that carries a w-eigenvector by one key lookup.  The histogram
reads a character only through its image under one homomorphism, so it
visits each image once, not each character; eigenspace_dimensions closes
the characters themselves by the same closure, so of the engine the oracle
uses only StabilizerGroup, StabilizerReport and membership.  Logical
operators are applied to the protected basis vectors alone; each basis index
is decoded into digits once per call, and each operator reads the digits at
its own support.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import add, itemgetter, mod, mul, sub
from struct import iter_unpack
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BadBound, InternalInvariant, TooLarge
from .pauli import PauliElement, commutation_phase, phase_modulus, power
from .stabilizer import StabilizerGroup, StabilizerReport, membership

DEFAULT_BOUND = 200_000


def oracle_bound(explicit: Optional[int] = None) -> int:
    """The state-space bound: explicit, else DEFAULT_BOUND."""
    if explicit is not None and explicit <= 0:
        raise BadBound(f"bound {explicit} is not positive")
    return DEFAULT_BOUND if explicit is None else explicit


def _check_size(d: int, n: int, bound: Optional[int]) -> int:
    size = d**n
    limit = oracle_bound(bound)
    if size > limit:
        raise TooLarge(f"d^n = {size} exceeds the oracle bound {limit}")
    return size


@dataclass(frozen=True, eq=False)
class PhasePermutation:
    """Exact action on basis vectors: p(v_i) = zeta^phase[i] v_perm[i].

    perm and phase are any integer sequences: represent gives an X-free
    element perm = range(d^n) and any other an array('i'), compose gives
    tuples.  Two actions are equal when their d, n and entries are, whatever
    the containers.
    """

    d: int
    n: int
    perm: Sequence[int]
    phase: Sequence[int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhasePermutation):
            return NotImplemented
        mine = (self.d, self.n, list(self.perm), list(self.phase))
        return mine == (other.d, other.n, list(other.perm), list(other.phase))

    def compose(self, other: "PhasePermutation") -> "PhasePermutation":
        """self after other."""
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("mismatched actions")
        db = phase_modulus(self.d)
        perm = tuple(self.perm[t] for t in other.perm)
        phase = tuple(
            (other.phase[i] + self.phase[other.perm[i]]) % db for i in range(len(self.perm))
        )
        return PhasePermutation(self.d, self.n, perm, phase)


def represent(p: PauliElement, bound: Optional[int] = None) -> PhasePermutation:
    """Exact phase-permutation of p: X shifts a digit, Z scales by xi^digit.

    Basis index i = sum_r digit_r * d^(n-1-r), and perm[i] = i + shift[i].
    The shift and phase tables grow one qudit at a time, least significant
    digit first: the tables over digits r..n-1 are d blocks, one per value of
    digit r, each a copy of the tables over digits r+1..n-1 plus that
    value's shift or scale.  Where p has no X (Z) part on qudit r, the shift
    (phase) table is repeated d times as it is, so entry-wise work happens
    on p's support alone.  An X-free p has perm = range(d^n), with no table;
    any other p has perm as an array('i') ('l' past d^n = 2^31 - 1).  The
    phase table takes one byte an entry while db <= 256, as bytes, and each
    block adds its constant by bytes.translate; past 256 it is an array('l').
    """
    from array import array  # on first use: importing the package need not load the extension

    d, n = p.d, p.n
    size = _check_size(d, n, bound)
    db = phase_modulus(d)
    moves = any(p.a)
    shift = [0]
    phase = bytes([p.phase % db]) if db <= 256 else array("l", [p.phase % db])
    for r in range(n - 1, -1, -1):
        a, b = p.a[r], p.b[r]
        if a:
            stride = d ** (n - 1 - r)
            steps = [((x + a) % d - x) * stride for x in range(d)]
            shift = [s + c for c in steps for s in shift]
        elif moves:
            shift *= d
        if b:
            scale = [(2 * b * x) % db for x in range(d)]
            if db <= 256:
                phase = b"".join(phase.translate(bytes((q + c) % db for q in range(256))) for c in scale)
            else:
                phase = array("l", [(q + c) % db for c in scale for q in phase])
        else:
            phase *= d
    perm = array("i" if size <= 2**31 - 1 else "l", map(add, range(size), shift)) if moves else range(size)
    return PhasePermutation(d, n, perm, phase)


class _Scan:
    """Orbit exploration over the generator actions, by replaying one orbit template column by column.

    X parts act on basis indices as digit-wise translations, so the orbits
    are the cosets of T = orbit(0).  One BFS of T records each position's
    generator word and its edges (position, generator, target position) in
    BFS order, with the word difference du (2*delta_word) of each closure
    edge.  Orbit o's members and potentials fill o*m .. o*m + m - 1 (m = |T|)
    of two flat arrays from the o-th coset minimum (_coset_minima), so
    position q of all orbits is the column [q::m].  One itemgetter over
    column p serves p's edges: a tree edge to q fills column q by one gather
    of its permutation and one of its phases; a closure edge checks its
    target column and gives one discrepancy per orbit.  A grid without d^n/m
    starts, a closure edge that misses its member, or replays that miss an
    index raise InternalInvariant("oracle.scan").  Else the replays are
    closed under every generator and hold each index once, so each visits,
    orders and closes its start's orbit as a BFS from it would: the
    translation property is checked, not assumed.

    An orbit's key holds its discrepancies, one per closure edge, as bytes
    while db <= 256, else as a tuple, read from one orbit-major table;
    key_of maps each orbit to its index in the list of distinct keys, and
    each key is a class.  A class carries a w-eigenvector iff its key is
    du . w edge by edge, and the keys are distinct, so at most one class
    does.  The closure edges share a few distinct du rows (du_rows, with
    edge_row the index of each edge's row), and du . w is equal on edges
    with equal rows.  So only the classes whose key agrees on such edges can
    match; row_index keys them by their one entry per row, and class_of(w)
    costs one dot product per distinct row and one lookup.
    """

    def __init__(self, group: StabilizerGroup, bound: Optional[int]):
        self.size = _check_size(group.d, group.n, bound)
        self.db = phase_modulus(group.d)
        self.reps = [represent(g, bound) for g in group.generators]
        self._explore(group.d, group.n)
        self.sizes = Counter(self.key_of)  # class -> number of orbits

    def _template(self, perms: list[Sequence[int]]):
        """BFS of orbit(0): members, words, edges (p, j, tp, e) (e is None on tree edges) and closure edge e's du."""
        db, g = self.db, len(perms)
        order, position, words = [0], {0: 0}, [(0,) * g]
        edges: list[tuple[int, int, int, Optional[int]]] = []  # in BFS order, so grouped by p
        du: list[tuple[int, ...]] = []
        for p, node in enumerate(order):  # order grows as the BFS discovers members
            for j in range(g):
                t = perms[j][node]
                tp = position.get(t)
                wt = list(words[p])
                wt[j] += 1
                if tp is None:
                    position[t] = len(order)
                    edges.append((p, j, len(order), None))
                    order.append(t)
                    words.append(tuple(wt))
                else:
                    edges.append((p, j, tp, len(du)))
                    du.append(tuple((2 * (x - y)) % db for x, y in zip(wt, words[tp])))
        return order, words, edges, du

    def _explore(self, d: int, n: int):
        from array import array  # on first use, as in represent

        db, size = self.db, self.size
        narrow, code = db <= 256, ("i" if size <= 2**31 - 1 else "l")  # represent's index typecode
        perms, phases = [r.perm for r in self.reps], [r.phase for r in self.reps]
        order, self.words, edges, du = self._template(perms)
        row_index: dict[tuple[int, ...], int] = {}
        self.edge_row = [row_index.setdefault(row, len(row_index)) for row in du]
        self.du_rows = list(row_index)
        m, width = len(order), len(du)  # every orbit has as many members as orbit(0)
        starts = _coset_minima(sorted(order), d, n, code)
        if (count := len(starts)) * m != size:
            raise InternalInvariant("oracle.scan", f"{count} coset starts of {m} members do not fill {size} indices")
        members = self.members = array(code, [0]) * size  # orbit o's members at o*m .. o*m + m - 1, in BFS order
        members[::m] = starts
        pots = self.pots = bytearray(size) if narrow else array("l", [0]) * size  # aligned with members
        joined = bytearray(count * width) if narrow else [0] * (count * width)  # orbit o's key from o*width on
        if db <= 128:  # a sum of two residues fits a byte, so one translate table reduces it
            reduced, negated = bytes(v % db for v in range(256)), bytes(-v % db for v in range(256))
            plus, negate = lambda a, b: bytes(map(add, a, b)).translate(reduced), lambda a: a.translate(negated)
        else:  # one mod an entry, into bytes to 256 and an array('l') past it
            wrap = bytes if narrow else (lambda entries: array("l", entries))
            plus, negate = lambda a, b: wrap(map(mod, map(add, a, b), repeat(db))), lambda a: map(sub, repeat(db), a)
        for p, out in groupby(edges, itemgetter(0)):
            gather = _gather(members[p::m])  # over position p of every orbit
            for _, j, tp, e in out:
                perm, phase = perms[j], gather(phases[j])
                if e is None:  # a tree edge: position tp of every orbit at once
                    members[tp::m] = array(code, gather(perm))
                    pots[tp::m] = plus(pots[p::m], phase)
                    continue
                # range(size)[x] == x, so a self-loop of the identity action lands on its member
                if not (p == tp and perm == range(size)) and array(code, gather(perm)) != members[tp::m]:
                    raise InternalInvariant("oracle.scan", "closure edge misses its template member")
                # a self-loop's potentials cancel, and phase is already reduced
                joined[e::width] = phase if p == tp else plus(plus(pots[p::m], phase), negate(pots[tp::m]))
        seen = bytearray(size)
        for x in members:
            seen[x] = 1
        if (missed := seen.find(0)) != -1:  # else the size members hold each index once
            raise InternalInvariant("oracle.scan", f"the replayed orbits miss index {missed}")
        pack = bytes if narrow else tuple
        if narrow and width:
            rows = iter_unpack(f"{width}s", joined)  # one (key,) per orbit
        else:  # with no closure edge every key is empty
            rows = zip(zip(*[iter(joined)] * width) if width else repeat(pack(), count))
        index: dict[Sequence[int], int] = {}
        self.key_of = [index.setdefault(key, len(index)) for key, in rows]
        self.keys = list(index)
        # edges with equal du rows get equal entries of du . w, so only a class whose
        # key agrees on them can match; its key is then fixed by one entry per row
        first = [self.edge_row.index(r) for r in range(len(self.du_rows))]
        on_rep = _gather([first[r] for r in self.edge_row])  # per edge, the first edge with its du row
        self.row_index: dict[tuple[int, ...], int] = {
            tuple(map(key.__getitem__, first)): k
            for k, key in enumerate(self.keys)
            if pack(on_rep(key)) == key
        }

    def class_of(self, w: Sequence[int]) -> Optional[int]:
        """The class whose orbits carry a w-eigenvector, or None when no class does."""
        db = self.db
        dots = tuple(sum(map(mul, row, w)) % db for row in self.du_rows)
        return self.row_index.get(dots)


def _gather(indices: Sequence[int]):
    """seq -> the tuple of seq[i] over indices: itemgetter alone returns a bare item for one index."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


def _coset_minima(template: Sequence[int], d: int, n: int, code: str):
    """The least members of the cosets of T, ascending, from T's sorted members (the template).

    With p_r the least leading digit of the members of T whose first nonzero
    digit is r (d if none), they are the mixed-radix grid of digits r in
    [0, p_r), grown least significant digit first as represent's tables are.
    """
    from array import array  # on first use, as in represent

    starts = array(code, [0])
    for r in range(n - 1, -1, -1):
        stride = d ** (n - 1 - r)
        i = bisect_left(template, stride)
        least = template[i] // stride if i < len(template) and template[i] < stride * d else d
        starts = array(code, chain.from_iterable(map(add, starts, repeat(c * stride)) for c in range(least)))
    return starts


def _protected_dimension(scan: _Scan) -> int:
    return scan.sizes[scan.class_of((0,) * len(scan.reps))]


def _closure(images: Iterable[tuple], modulus: int, width: int, limit: Optional[int] = None) -> dict:
    """The subgroup of (Z/modulus)^width spanned by images, as an ordered set.

    Each image t not yet in the span S appends S + t, S + 2t, ... until a
    multiple of t lands in S, which builds each element once.  Raises
    TooLarge as soon as the span holds more than limit elements.
    """
    span = dict.fromkeys([(0,) * width])
    for t in images:
        if t in span:
            continue
        subgroup, coset = list(span), t
        while coset not in span:
            span.update(dict.fromkeys(tuple((x + y) % modulus for x, y in zip(z, coset)) for z in subgroup))
            coset = tuple((x + y) % modulus for x, y in zip(coset, t))
            if limit is not None and len(span) > limit:
                raise TooLarge(f"the span exceeds {limit} elements")
    return span


def _histogram(group: StabilizerGroup, scan: _Scan) -> dict[int, int]:
    """Eigenspace dimension -> number of characters, from the fibres of T.

    class_of(w) reads w only through T(w) = (du . w mod db) over the distinct
    du rows, and T is a homomorphism on the character group C, so each fibre
    holds the same number m of characters, all of one dimension.  Every
    character is w_j = phi(x, tau(g_j)) for some x, so C is spanned by the 2n
    columns of the generators' exponents (x a unit vector), and T(C) is closed
    from their images.  The eigenspaces of all characters sum to d^n, so
    m = d^n / sum of dim over T(C).
    """
    db, rows = scan.db, scan.du_rows
    columns = zip(*(g.b + g.a for g in group.generators))
    span = _closure((tuple(sum(map(mul, row, c)) % db for row in rows) for c in columns), db, len(rows))
    dims = Counter(scan.sizes[scan.row_index.get(y)] for y in span)  # dimension -> images with it
    total = sum(dim * count for dim, count in dims.items())
    if not total or scan.size % total:
        raise InternalInvariant("oracle.histogram", "eigenspace dimensions do not sum to d^n")
    return {dim: count * (scan.size // total) for dim, count in dims.items()}


def _protected_basis(scan: _Scan, w: tuple[int, ...]) -> list[dict[int, int]]:
    """The w-eigenspace basis: amplitude zeta^(pot - (2*word) . w) on each orbit of class_of(w)."""
    db, m, members, pots = scan.db, len(scan.words), scan.members, scan.pots
    k = scan.class_of(w)
    shift = [sum(2 * c * x for c, x in zip(word, w)) for word in scan.words]
    vectors = [
        {x: (pt - s) % db for x, pt, s in zip(members[o * m:o * m + m], pots[o * m:o * m + m], shift)}
        for o, c in enumerate(scan.key_of)
        if c == k
    ]
    for vec in vectors:
        for j, rep in enumerate(scan.reps):
            if not _maps_to_multiple(vec, rep, db, expect=(2 * w[j]) % db):
                raise InternalInvariant("oracle.basis", "protected vector is not fixed")
    return vectors


def protected_dimension(group: StabilizerGroup, bound: Optional[int] = None) -> int:
    """dim of the fixed space: orbits whose phase cocycle closes trivially."""
    return _protected_dimension(_Scan(group, bound))


def eigenspace_dimensions(group: StabilizerGroup, bound: Optional[int] = None) -> dict[tuple[int, ...], int]:
    """Map character exponent vectors to eigenspace dimensions, in the order the closure builds C.

    C is closed from the 2n exponent columns as the histogram closes T(C),
    and its Counter of dimensions must equal the histogram.  Raises TooLarge
    past d^n characters, which no group of commuting generators has: an
    isotropic tau(H) has at most d^n elements.
    """
    scan = _Scan(group, bound)
    histogram = _histogram(group, scan)
    columns = zip(*(g.b + g.a for g in group.generators))
    span = _closure(columns, group.d, len(group.generators), limit=scan.size)
    out = {w: scan.sizes[scan.class_of(w)] for w in span}
    if Counter(out.values()) != histogram:
        raise InternalInvariant("oracle.histogram", "character dimensions differ from the fibres")
    return out


def protected_basis(
    group: StabilizerGroup,
    chi: Optional[Sequence[int]] = None,
    bound: Optional[int] = None,
) -> list[dict[int, int]]:
    """Exact orthogonal basis of the chi-eigenspace (default: fixed space).

    Each vector is {basis index: zeta exponent}, one per consistent orbit;
    every returned vector is re-verified against all generators.  chi holds
    one value per generator; any other length raises ValueError.
    """
    w = tuple(chi) if chi is not None else (0,) * len(group.generators)
    if len(w) != len(group.generators):
        raise ValueError(f"{len(w)} character values for {len(group.generators)} generators")
    return _protected_basis(_Scan(group, bound), w)


def _maps_to_multiple(vec: dict[int, int], rep: PhasePermutation, db: int, expect: int) -> bool:
    """rep sends the vector to zeta^expect times itself, exactly."""
    image = {rep.perm[i]: (e + rep.phase[i]) % db for i, e in vec.items()}
    if set(image) != set(vec):
        return False
    return all((image[i] - vec[i]) % db == expect for i in vec)


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool
    checks: dict[str, bool]
    details: dict[str, str]
    histogram: dict[int, int]
    skipped: dict[str, str] = field(default_factory=dict)  # check -> why it did not run

    def to_json_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "checks": dict(self.checks),
            "details": dict(self.details),
            "eigenspace_histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "skipped": dict(self.skipped),
        }


def verify_report(
    group: StabilizerGroup,
    report: StabilizerReport,
    bound: Optional[int] = None,
) -> OracleVerdict:
    """Cross-check an analysis report against the exact basis action.

    Checks: (a) the protected dimension, (b) logical operators preserve
    the fixed space, (c) the Heisenberg relations of the logical pairs
    hold modulo the group, (d) the report's count: prod s_i * |H| = d^n,
    |H| equals the oracle's own count of the characters, prod s_i equals
    the oracle's dimension, and FREE(r) and SHIFTED_FREE(r) have |H| = d^r
    and n - r divisors all d, GENERAL some divisor below d (what tells
    SHIFTED_FREE from FREE is not checked), and (e) transitivity: every
    character's eigenspace has the same dimension.  The histogram (dimension -> number of
    characters) comes from the fibres of the homomorphism through which the
    scan reads a character, so its work follows the number of distinct
    images, not of characters, and nothing is skipped.

    Each generator is represented once, and one scan serves the dimension,
    the protected basis and the histogram.  Logical operators are applied
    to the protected basis vectors only, whose indices are decoded into
    digits once.
    """
    d, n = group.d, group.n
    db = phase_modulus(d)
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    scan = _Scan(group, bound)
    dim = _protected_dimension(scan)
    checks["dimension"] = dim == report.dim_protected
    if not checks["dimension"]:
        details["dimension"] = f"oracle {dim} != reported {report.dim_protected}"

    basis = _protected_basis(scan, (0,) * len(group.generators))
    vector_of = {i: vec for vec in basis for i in vec}
    digits = {i: _digits(i, d, n) for i in vector_of}
    ok = True
    for pair in report.logical_operators:
        for op in (pair.z_like, pair.x_like):
            for image in _images(op, basis, digits):
                if not _in_span(image, vector_of, db):
                    ok = False
                    details.setdefault("logical_action", f"operator {op.to_text()} leaves V^H")
    checks["logical_action"] = ok

    # every commutator z x z^-1 x^-1 is the scalar xi^commutation_phase(z, x), and H
    # holds a scalar iff its phase is 0, so only the powers need a membership solve
    ok = True
    pairs = report.logical_operators
    for i, p1 in enumerate(pairs):
        if commutation_phase(p1.z_like, p1.x_like) != (d // p1.divisor) % d:
            ok = False
            details.setdefault("relations", f"pair {i} braiding phase mismatch")
        for op in (p1.z_like, p1.x_like):
            if not membership(group, power(op, p1.divisor)):
                ok = False
                details.setdefault("relations", f"pair {i} power escapes the group")
        for j, p2 in enumerate(pairs):
            if i == j:
                continue
            for u in (p1.z_like, p1.x_like):
                for v in (p2.z_like, p2.x_like):
                    if commutation_phase(u, v):
                        ok = False
                        details.setdefault("relations", f"pairs {i},{j} do not commute modulo H")
    checks["relations"] = ok

    histogram = _histogram(group, scan)
    order = sum(histogram.values())  # |H| = |C|, counted by the fibres
    prodq = math.prod(report.quotient_divisors)
    if prodq * report.cardinality != d**n:
        details["irreducibility_count"] = "divisors inconsistent with the group order"
    elif order != report.cardinality:
        details["irreducibility_count"] = f"oracle |H| {order} != reported {report.cardinality}"
    elif prodq != dim:
        details["irreducibility_count"] = f"divisors multiply to {prodq} != oracle dimension {dim}"
    elif report.rank is not None and (report.rank > n or order != d**report.rank):
        details["irreducibility_count"] = f"{report.classification} needs |H| = {d}^{report.rank}, oracle |H| {order}"
    elif report.rank is not None and report.quotient_divisors != (d,) * (n - report.rank):
        details["irreducibility_count"] = f"{report.classification} needs {n - report.rank} quotient divisors, all {d}"
    elif report.rank is None and all(s == d for s in report.quotient_divisors):
        details["irreducibility_count"] = f"{report.classification} needs a quotient divisor below {d}"
    checks["irreducibility_count"] = "irreducibility_count" not in details

    checks["transitivity"] = len(histogram) == 1
    if not checks["transitivity"]:
        details["transitivity"] = "eigenspace dimensions differ across characters"

    return OracleVerdict(passed=all(checks.values()), checks=checks, details=details, histogram=histogram)


def _digits(i: int, d: int, n: int) -> list[int]:
    """The n base-d digits of basis index i, most significant first."""
    out = [0] * n
    for r in range(n - 1, -1, -1):
        i, out[r] = divmod(i, d)
    return out


def _images(
    p: PauliElement, vectors: Sequence[dict[int, int]], digits: dict[int, list[int]]
) -> Iterator[dict[int, int]]:
    """p applied to each vector {basis index: zeta exponent}, with represent's arithmetic.

    digits holds each index's _digits.  Only the vectors' indices are mapped,
    and only at the qudits where p has an X or a Z part, so no d^n table is
    built.
    """
    d, n = p.d, p.n
    db = phase_modulus(d)
    shifts = [(r, x, d ** (n - 1 - r)) for r, x in enumerate(p.a) if x]
    scales = [(r, 2 * z) for r, z in enumerate(p.b) if z]
    for vec in vectors:
        out = {}
        for i, e in vec.items():
            ds = digits[i]
            t = i + sum(((ds[r] + x) % d - ds[r]) * stride for r, x, stride in shifts)
            out[t] = (e + p.phase + sum(z * ds[r] for r, z in scales)) % db
        yield out


def _in_span(image: dict[int, int], vector_of: dict[int, dict[int, int]], db: int) -> bool:
    """image equals zeta^c times one basis vector; vector_of maps each index to its basis vector.

    The supports are disjoint orbits, so the vector holding any one index of
    the image is the only candidate.
    """
    vec = vector_of.get(next(iter(image), None))
    if vec is None or set(vec) != set(image):
        return False
    return len({(image[i] - vec[i]) % db for i in image}) == 1
