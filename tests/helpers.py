"""Shared test utilities: independent oracles and random generators.

The matrix oracle builds explicit numpy matrices from the defining action
(X shifts basis vectors, Z scales by xi = zeta^2) and never touches the
symbolic normal-form code paths it is used to check.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter, deque
from itertools import combinations, product

import numpy as np

from quditstab import oracle, pauli, zmod
from quditstab.errors import ContainsScalar, InternalInvariant, NotAbelian
from quditstab.oracle import PhasePermutation
from quditstab.pauli import (
    PauliElement,
    commutation_phase,
    inverse,
    is_identity,
    multiply,
    order_matched_lift,
    phase_modulus,
    power,
)
from quditstab.stabilizer import StabilizerGroup, characters, membership, validate
from quditstab.symplectic import SymplecticSpace
from quditstab.zmod import SmithForm, Submodule, ZdMatrix, smith_normal_form, vec_add, vec_scale


def mat_x(d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1.0
    return m


def mat_z(d: int) -> np.ndarray:
    zeta = np.exp(2j * np.pi / phase_modulus(d))
    xi = zeta * zeta
    return np.diag([xi**j for j in range(d)])


def pauli_matrix(p: PauliElement) -> np.ndarray:
    zeta = np.exp(2j * np.pi / phase_modulus(p.d))
    out = np.eye(1, dtype=complex) * zeta**p.phase
    x, z = mat_x(p.d), mat_z(p.d)
    for k in range(p.n):
        factor = np.linalg.matrix_power(x, p.a[k]) @ np.linalg.matrix_power(z, p.b[k])
        out = np.kron(out, factor)
    return out


def matrices_equal(p: PauliElement, m: np.ndarray) -> bool:
    return np.allclose(pauli_matrix(p), m, atol=1e-9)


def represent_reference(p: PauliElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm, phase) of p on the basis states by an n-digit loop per state."""
    d, n = p.d, p.n
    db = phase_modulus(d)
    strides = [d ** (n - 1 - r) for r in range(n)]
    perm, phase = [], []
    for digits in product(range(d), repeat=n):
        t, ph = 0, p.phase
        for r in range(n):
            t += ((digits[r] + p.a[r]) % d) * strides[r]
            ph += 2 * p.b[r] * digits[r]
        perm.append(t)
        phase.append(ph % db)
    return tuple(perm), tuple(phase)


def scan_reference(reps, size: int, db: int, with_words: bool):
    """(orbits, pot) of the generator actions by a plain BFS from each unvisited index.

    orbits lists (members, closure_rows) in the order found, members in BFS
    order.  Without words the closure rows are the sorted distinct nonzero
    (delta_e,); with words they are the sorted distinct nonzero rows
    (delta_e, 2*delta_word), as test_oracle's closure_rows reads them from
    a scan's keys, edge_row and du_rows.
    """
    g = len(reps)
    perms = [r.perm for r in reps]
    phases = [r.phase for r in reps]
    pot = [0] * size
    seen = [False] * size
    words = [None] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        members, raw = [start], set()
        seen[start] = True
        words[start] = (0,) * g
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for j in range(g):
                t = perms[j][node]
                ph = (pot[node] + phases[j][node]) % db
                wt = list(words[node])
                wt[j] += 1
                if not seen[t]:
                    seen[t] = True
                    pot[t] = ph
                    words[t] = tuple(wt)
                    members.append(t)
                    queue.append(t)
                    continue
                de = (ph - pot[t]) % db
                du = tuple((2 * (x - y)) % db for x, y in zip(wt, words[t]))
                if with_words and (de or any(du)):
                    raw.add((de,) + du)
                elif not with_words and de:
                    raw.add((de,))
        orbits.append((members, sorted(raw)))
    return orbits, pot


def scan_orbits(scan) -> list[list[int]]:
    """A scan's orbits as member lists in BFS order, cut from its flat members array."""
    m = len(scan.words)
    return [list(scan.members[o:o + m]) for o in range(0, scan.size, m)]


def scan_pot(scan) -> list[int]:
    """A scan's potential of each basis index, from its potentials aligned with its members."""
    pot = [0] * scan.size
    for x, pt in zip(scan.members, scan.pots):
        pot[x] = pt
    return pot


def chi_basis_reference(reps, size: int, db: int, w) -> list[dict[int, int]]:
    """The w-eigenspace basis of the generator actions by a plain BFS from each unvisited index.

    Along every edge x -> t of generator j the amplitude exponent steps by
    phase_j(x) - 2*w_j; an orbit where two paths disagree carries no vector.
    """
    perms = [r.perm for r in reps]
    phases = [r.phase for r in reps]
    seen = [False] * size
    vectors = []
    for start in range(size):
        if seen[start]:
            continue
        pots, clash = {start: 0}, False
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for j in range(len(reps)):
                t = perms[j][node]
                ph = (pots[node] + phases[j][node] - 2 * w[j]) % db
                if t not in pots:
                    seen[t] = True
                    pots[t] = ph
                    queue.append(t)
                elif pots[t] != ph:
                    clash = True
        if not clash:
            vectors.append(pots)
    return vectors


def tampered_represent(real, fixed: int = 0):
    """represent, except that every action moving index fixed is made to fix it.

    The images of fixed and of its preimage are swapped: still a bijection,
    no longer a translation of the basis indices.
    """

    def represent(p, bound=None):
        rep = real(p, bound)
        perm = list(rep.perm)
        k = perm.index(fixed)
        perm[fixed], perm[k] = perm[k], perm[fixed]
        return PhasePermutation(rep.d, rep.n, tuple(perm), rep.phase)

    return represent


def swapped_x_free_represent(real, i: int = 1, j: int = 2):
    """represent, except that every X-free action swaps the images of indices i and j.

    tampered_represent leaves X-free actions alone, since they fix every
    index; this one breaks their identity permutation.
    """

    def represent(p, bound=None):
        rep = real(p, bound)
        if any(p.a):
            return rep
        perm = list(rep.perm)
        perm[i], perm[j] = perm[j], perm[i]
        return PhasePermutation(rep.d, rep.n, tuple(perm), rep.phase)

    return represent


def tuple_x_free_represent(real):
    """represent, except that every X-free action's range(d^n) arrives as an equal tuple."""

    def represent(p, bound=None):
        rep = real(p, bound)
        if type(rep.perm) is not range:
            return rep
        return PhasePermutation(rep.d, rep.n, tuple(rep.perm), rep.phase)

    return represent


def sweep_histogram(group: StabilizerGroup) -> dict[int, int]:
    """The eigenspace histogram by the character sweep: class_of of each of characters(group).

    Raises InternalInvariant("oracle.histogram") when the dimensions do not sum to d^n.
    """
    scan = oracle._Scan(group, None)
    dims = [scan.sizes[scan.class_of(chi.values)] for chi in characters(group)]
    if sum(dims) != scan.size:
        raise InternalInvariant("oracle.histogram", "eigenspace dimensions do not sum to d^n")
    return dict(Counter(dims))


def enumerate_elements_reference(sub: Submodule) -> list:
    """sub's elements by the fold over itertools.product of the quasi-basis coefficient ranges."""
    qb = sub.quasi_basis()
    d = sub.modulus
    out = []
    for coeffs in product(*(range(o) for _, o in qb)):
        x = (0,) * sub.ambient_rank
        for cf, (vec, _) in zip(coeffs, qb):
            if cf:
                x = vec_add(x, vec_scale(cf, vec, d), d)
        out.append(x)
    return out


def brute_span(gens, d, m) -> set:
    """Closure of the generators under addition, by plain BFS."""
    seen = {(0,) * m}
    frontier = {(0,) * m}
    while frontier:
        frontier = {vec_add(x, g, d) for x in frontier for g in gens} - seen
        seen |= frontier
    return seen


def divisors(d: int) -> list[int]:
    """Positive divisors of d in increasing order, by trial division."""
    small, large = [], []
    k = 1
    while k * k <= d:
        if d % k == 0:
            small.append(k)
            if k * k != d:
                large.append(d // k)
        k += 1
    return small + large[::-1]


def radical_reference(space: SymplecticSpace, gens) -> tuple[set, set]:
    """(carrier, carrier & perp(carrier)) of the span of gens, as element sets by enumeration."""
    carrier = brute_span(gens, space.modulus, space.rank)
    radical = {x for x in carrier if not any(space.pairing(x, g) for g in gens)}
    return carrier, radical


def random_pauli(rng: random.Random, d: int, n: int) -> PauliElement:
    return PauliElement(
        d,
        n,
        rng.randrange(phase_modulus(d)),
        tuple(rng.randrange(d) for _ in range(n)),
        tuple(rng.randrange(d) for _ in range(n)),
    )


def random_isotropic_vectors(rng: random.Random, d: int, n: int, attempts: int = 4) -> list:
    space = SymplecticSpace(n, d)
    kept = []
    for _ in range(attempts):
        v = tuple(rng.randrange(d) for _ in range(2 * n))
        if any(v) and all(space.pairing(v, w) == 0 for w in kept):
            kept.append(v)
    return kept


def random_stabilizer_group(rng: random.Random, d: int, n: int) -> StabilizerGroup:
    """A random valid group: order-matched lifts of a random isotropic image.

    Generators get random allowed xi-phases and a couple of redundant
    random words, so presentations vary while validity is guaranteed.
    """
    image = Submodule(d, 2 * n, random_isotropic_vectors(rng, d, n))
    gens = []
    for vec, o in image.quasi_basis():
        g = order_matched_lift(d, vec)
        t = rng.randrange(o)
        gens.append(multiply(PauliElement.scalar(d, n, 2 * (d // o) * t), g))
    for _ in range(rng.randint(0, 2)):
        w = PauliElement.identity(d, n)
        for g in gens:
            w = multiply(w, power(g, rng.randrange(d)))
        gens.append(w)
    rng.shuffle(gens)
    return validate(d, n, gens)


def word_reference(group: StabilizerGroup, exponents) -> PauliElement:
    """The left fold of multiply(out, power(g, e)) over the generators with e != 0 mod d."""
    out = PauliElement.identity(group.d, group.n)
    for g, e in zip(group.generators, exponents, strict=True):
        if e % group.d:
            out = multiply(out, power(g, e))
    return out


def apply_reference(aut, p: PauliElement) -> PauliElement:
    """PauliAutomorphism.apply as the left fold of multiply(out, power(image, e)), X_k before Z_k."""
    out = PauliElement.scalar(aut.d, aut.n, p.phase)
    for k in range(aut.n):
        if p.a[k]:
            out = multiply(out, power(aut.x_images[k], p.a[k]))
        if p.b[k]:
            out = multiply(out, power(aut.z_images[k], p.b[k]))
    return out


def validate_reference(d: int, n: int, generators) -> StabilizerGroup:
    """validate's checks in the symbolic arithmetic: commutation_phase per pair in
    row-major order, power(g, d) per generator, word_reference per relation."""
    group = StabilizerGroup(d, n, generators)
    gens = group.generators
    for i, j in combinations(range(len(gens)), 2):
        c = commutation_phase(gens[i], gens[j])
        if c:
            raise NotAbelian((i, j), c)
    for j, g in enumerate(gens):
        pw = power(g, d)
        if not is_identity(pw):
            raise ContainsScalar(tuple(d if k == j else 0 for k in range(len(gens))), pw.phase)
    for lam in group.relation_kernel():
        w = word_reference(group, lam)
        if not is_identity(w):
            raise ContainsScalar(lam, w.phase)
    return group


def characters_reference(group: StabilizerGroup) -> set:
    """The character value vectors as the annihilator of the relations.

    The kernel of the matrix whose rows are relation_kernel(), read from that
    matrix's own Smith form; every vector when there is no relation.
    """
    d, g = group.d, len(group.generators)
    relations = group.relation_kernel()
    if not relations:
        return set(product(range(d), repeat=g))
    return set(Submodule(d, g, smith_normal_form(ZdMatrix.from_rows(d, relations, cols=g)).kernel()).enumerate_elements())


def relations_reference(group: StabilizerGroup, pairs) -> tuple[bool, str | None]:
    """verify_report's relations check with dense products: each commutator, shifted by
    the expected braiding scalar, and each power, must be a member of the group.

    Returns (ok, the first failure's detail or None), in verify_report's loop order.
    """
    d, n = group.d, group.n
    ok, detail = True, None

    def fail(text):
        nonlocal ok, detail
        ok = False
        detail = detail or text

    for i, p1 in enumerate(pairs):
        comm = multiply(multiply(p1.z_like, p1.x_like), inverse(multiply(p1.x_like, p1.z_like)))
        if not membership(group, multiply(comm, PauliElement.scalar(d, n, -2 * (d // p1.divisor)))):
            fail(f"pair {i} braiding phase mismatch")
        for op in (p1.z_like, p1.x_like):
            if not membership(group, power(op, p1.divisor)):
                fail(f"pair {i} power escapes the group")
        for j, p2 in enumerate(pairs):
            if i == j:
                continue
            for u in (p1.z_like, p1.x_like):
                for v in (p2.z_like, p2.x_like):
                    if not membership(group, multiply(multiply(u, v), inverse(multiply(v, u)))):
                        fail(f"pairs {i},{j} do not commute modulo H")
    return ok, detail


def random_symplectic_matrix(rng: random.Random, n: int, d: int, steps: int = 6) -> ZdMatrix:
    """Product of random symplectic transvections u -> u + phi(u, v) v."""
    space = SymplecticSpace(n, d)
    mat = ZdMatrix.identity(d, 2 * n)
    for _ in range(steps):
        v = tuple(rng.randrange(d) for _ in range(2 * n))
        cols = []
        for k in range(2 * n):
            u = tuple(1 if i == k else 0 for i in range(2 * n))
            c = space.pairing(u, v)
            cols.append(tuple((u[i] + c * v[i]) % d for i in range(2 * n)))
        mat = ZdMatrix.from_rows(d, list(zip(*cols))) @ mat
    return mat


def _identity_after(d: int, n: int, ops) -> ZdMatrix:
    """The n x n identity with recorded Smith operations applied in order as row operations.

    (0, i, j, 0) swaps rows i and j, (1, i, j, q) adds q * row_j to row_i and
    (2, i, i, w) multiplies row_i by w.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, q in ops:
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i] = [q * x for x in rows[i]]
    return ZdMatrix.from_rows(d, rows, n)


def _inverse_ops(d: int, ops):
    """The inverses of recorded Smith operations, in reverse order."""
    inverse = {0: lambda q: q, 1: lambda q: -q, 2: lambda q: pow(q, -1, d)}
    return [(k, i, j, inverse[k](q)) for k, i, j, q in reversed(ops)]


def smith_u(s: SmithForm) -> ZdMatrix:
    """Dense reference for the row transform u of u @ a @ v == diagonal."""
    return _identity_after(s.modulus, s.shape[0], s.row_ops)


def smith_u_inv(s: SmithForm) -> ZdMatrix:
    return _identity_after(s.modulus, s.shape[0], _inverse_ops(s.modulus, s.row_ops))


def smith_v(s: SmithForm) -> ZdMatrix:
    """Dense reference for the column transform v: col_ops build v^T."""
    return _identity_after(s.modulus, s.shape[1], s.col_ops).transpose()


def smith_v_inv(s: SmithForm) -> ZdMatrix:
    return _identity_after(s.modulus, s.shape[1], _inverse_ops(s.modulus, s.col_ops)).transpose()


def smith_diagonal(s: SmithForm) -> ZdMatrix:
    """The r x c diagonal matrix u @ a @ v."""
    d, (r, c) = s.modulus, s.shape
    return ZdMatrix.from_rows(d, [[x if i == j else 0 for j in range(c)] for i, x in enumerate(s.diag)]
                              + [[0] * c] * (r - len(s.diag)), c)


def record_replays(monkeypatch) -> list:
    """The width (columns picked) of every later block replay of a Smith form's operations, in call order."""
    widths = []
    real = zmod._replay_columns

    def recording(d, size, picked, ops):
        widths.append(len(picked))
        return real(d, size, picked, ops)

    monkeypatch.setattr(zmod, "_replay_columns", recording)
    return widths


def smith_normal_form_reference(mat: ZdMatrix) -> SmithForm:
    """smith_normal_form on dense rows: every column operation walks all r rows.

    The same pivot rule (least (gcd(x, d), x), then lowest (i, j)), the same
    unit scale right after the swaps and the same order of operations, so the
    same diag, row_ops and col_ops.  Operations are recorded as (0, i, j, 0)
    swap, (1, i, j, q) row_i += q * row_j and (2, i, i, w) scale;
    col_j += q * col_k is (1, j, k, q).
    """
    d = mat.modulus
    r, c = mat.rows, mat.cols
    m = [list(row) for row in mat.entries]
    row_ops, col_ops = [], []

    def row_addmul(i, j, q):
        if q:
            m[i] = [(x + q * y) % d for x, y in zip(m[i], m[j])]
            row_ops.append((1, i, j, q))

    def col_addmul(j, k, q):
        if q:
            for row in m:
                row[j] = (row[j] + q * row[k]) % d
            col_ops.append((1, j, k, q))

    for k in range(min(r, c)):
        while True:
            entries = [(math.gcd(m[i][j], d), m[i][j], i, j) for i in range(k, r) for j in range(k, c) if m[i][j]]
            if not entries:
                break
            *_, i0, j0 = min(entries)
            if i0 != k:
                m[k], m[i0] = m[i0], m[k]
                row_ops.append((0, k, i0, 0))
            if j0 != k:
                for row in m:
                    row[k], row[j0] = row[j0], row[k]
                col_ops.append((0, k, j0, 0))
            p = m[k][k]
            g = math.gcd(p, d)
            if g != p:
                w = zmod.unit_lifting_gcd(p, d)
                m[k] = [(w * x) % d for x in m[k]]
                row_ops.append((2, k, k, w))
                p = g
            dirty = False
            for i in range(k + 1, r):
                if m[i][k]:
                    row_addmul(i, k, (-(m[i][k] // p)) % d)
                    dirty = dirty or bool(m[i][k])
            for j in range(k + 1, c):
                if m[k][j]:
                    col_addmul(j, k, (-(m[k][j] // p)) % d)
                    dirty = dirty or bool(m[k][j])
            if dirty:
                continue
            if p == 1:
                break
            bad = next((i for i in range(k + 1, r) if any(x % p for x in m[i][k + 1:])), None)
            if bad is None:
                break
            row_addmul(k, bad, 1)

    diag = tuple(m[i][i] or d for i in range(min(r, c)))
    return SmithForm(d, (r, c), diag, tuple(row_ops), tuple(col_ops))


def solve_reference(s: SmithForm, b) -> tuple | None:
    """x with a @ x == b read through the transform matrices: v @ (u @ b / diag), or None."""
    d = s.modulus
    r, c = s.shape
    cvec = smith_u(s).mul_vector(tuple(x % d for x in b))
    y = [0] * c
    for i in range(r):
        if i < len(s.diag):
            if cvec[i] % s.diag[i]:
                return None
            y[i] = cvec[i] // s.diag[i]
        elif cvec[i]:
            return None
    return smith_v(s).mul_vector(y)


def block_group(rng: random.Random, d: int, n: int, blocks) -> StabilizerGroup:
    """Order-matched lifts of a*e_r and b*f_r for each (a, b) in blocks.

    (e_r, f_r) are the columns of a random symplectic matrix; d | a*b keeps
    the image isotropic, a == d drops e_r and b == d drops f_r.
    """
    basis = random_symplectic_matrix(rng, n, d, steps=2 * n)
    gens = []
    for r, (a, b) in enumerate(blocks):
        for scale, col in ((a, r), (b, n + r)):
            vec = tuple(scale * x % d for x in basis.col(col))
            if any(vec):
                gens.append(order_matched_lift(d, vec))
    return validate(d, n, gens)


def standard_gram(n: int, d: int) -> ZdMatrix:
    """Dense Gram matrix of the commutation form on (z_1..z_n, x_1..x_n)."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = 1 % d
        rows[n + i][i] = -1 % d
    return ZdMatrix.from_rows(d, rows, cols=2 * n)


def chain_reference(divisors, primes) -> tuple:
    """Divisor chain by regrouping prime powers over primes known to cover the divisors.

    The k-th largest power of every prime goes into the k-th largest entry.
    """
    exponents = {}
    for dv in divisors:
        for p in primes:
            e = 0
            while dv % p == 0:
                dv //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
        assert dv == 1, "the primes do not cover the divisors"
    depth = max((len(es) for es in exponents.values()), default=0)
    chain = []
    for k in range(depth):
        entry = 1
        for p, es in exponents.items():
            es = sorted(es, reverse=True)
            if k < len(es):
                entry *= p ** es[k]
        chain.append(entry)
    return tuple(reversed(chain))


def assert_symplectic_basis(space: SymplecticSpace, es, fs) -> None:
    for i in range(len(es)):
        for j in range(len(es)):
            expected = 1 if i == j else 0
            assert space.pairing(es[i], fs[j]) == expected
            assert space.pairing(es[i], es[j]) == 0
            assert space.pairing(fs[i], fs[j]) == 0


def count_reductions(monkeypatch) -> list:
    """The matrices every later smith_normal_form call reduces, in call order."""
    calls = []
    real = zmod.smith_normal_form

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(zmod, "smith_normal_form", counting)
    return calls


def count_pairings(monkeypatch) -> Counter:
    """Later calls of SymplecticSpace.pairing and of commutation_phase, by name.

    commutation_phase is counted in every quditstab module that imports it.
    """
    counts = Counter()
    real_pairing, real_phase = SymplecticSpace.pairing, pauli.commutation_phase

    def pairing(self, u, v):
        counts["pairing"] += 1
        return real_pairing(self, u, v)

    def commutation_phase(p, q):
        counts["commutation_phase"] += 1
        return real_phase(p, q)

    monkeypatch.setattr(SymplecticSpace, "pairing", pairing)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quditstab" and getattr(module, "commutation_phase", None) is real_phase:
            monkeypatch.setattr(module, "commutation_phase", commutation_phase)
    return counts


def count_multiplies(monkeypatch) -> list:
    """The (p, q) of every later multiply call, in every quditstab module that imports it."""
    calls = []
    real = pauli.multiply

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quditstab" and getattr(module, "multiply", None) is real:
            monkeypatch.setattr(module, "multiply", counting)
    return calls
