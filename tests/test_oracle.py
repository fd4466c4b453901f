import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quditstab.oracle as oracle_module
from quditstab.errors import BadBound, InternalInvariant, TooLarge
from quditstab.kitaev import ShiftPair, apply_twist, build_model, torus_grid_graph
from quditstab.oracle import (
    DEFAULT_BOUND,
    PhasePermutation,
    eigenspace_dimensions,
    oracle_bound,
    protected_basis,
    protected_dimension,
    represent,
    verify_report,
)
from quditstab.pauli import PauliElement, multiply, phase_modulus
from quditstab.stabilizer import StabilizerGroup, StabilizerReport, analyze, characters, validate
from tests.helpers import (
    block_group,
    chi_basis_reference,
    count_reductions,
    random_pauli,
    random_stabilizer_group,
    relations_reference,
    represent_reference,
    scan_orbits,
    scan_pot,
    scan_reference,
    swapped_x_free_represent,
    sweep_histogram,
    tampered_represent,
    tuple_x_free_represent,
)


def x4z4_group():
    return validate(8, 1, [PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4)])


def d6_group():
    """Mixed orders at d=6: Z_1^2 X_2^3, X_1^3 X_2^3 and Z_3^3 on three qudits."""
    gens = [
        PauliElement(6, 3, 0, (0, 3, 0), (2, 0, 0)),
        PauliElement(6, 3, 0, (3, 3, 0), (0, 0, 0)),
        PauliElement.z_op(6, 3, 2, 3),
    ]
    return validate(6, 3, gens)


def record_scans(monkeypatch) -> list:
    """Every _Scan the oracle builds from now on, in order."""
    scans = []
    real = oracle_module._Scan

    def recording(group, bound):
        scans.append(real(group, bound))
        return scans[-1]

    monkeypatch.setattr(oracle_module, "_Scan", recording)
    return scans


def closure_rows(scan) -> list:
    """Per orbit, the sorted distinct nonzero rows (delta_e, du) of its closure edges, read from the scan."""
    by_class = [sorted({row for row in ((de,) + scan.du_rows[r] for de, r in zip(key, scan.edge_row)) if any(row)})
                for key in scan.keys]
    return [by_class[k] for k in scan.key_of]


def consistent_with(rows, w, db) -> bool:
    """A w-eigenvector lives on an orbit iff delta_e == du . w on each of its closure rows."""
    return all((sum(c * x for c, x in zip(row[1:], w)) - row[0]) % db == 0 for row in rows)


def z_block_group(d, n, k):
    """<Z_1..Z_k> on n qudits: every basis state is its own orbit."""
    return validate(d, n, [PauliElement.z_op(d, n, i) for i in range(k)])


@st.composite
def pauli_for_represent(draw):
    d = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.integers(min_value=0, max_value=5))
    digits = st.integers(min_value=0, max_value=d - 1)
    a = tuple(draw(st.lists(digits, min_size=n, max_size=n)))
    b = tuple(draw(st.lists(digits, min_size=n, max_size=n)))
    phase = draw(st.integers(min_value=0, max_value=phase_modulus(d) - 1))
    return PauliElement(d, n, phase, a, b)


def assert_containers(rep, p):
    """represent's exact containers: perm is range(d^n) when p is X-free, else an array('i')
    (array('l') past d^n = 2^31 - 1); phase is bytes while db <= 256, else an array('l')."""
    if any(p.a):
        assert type(rep.perm) is array and rep.perm.typecode == ("i" if p.d**p.n <= 2**31 - 1 else "l")
    else:
        assert type(rep.perm) is range and rep.perm == range(p.d**p.n)
    if phase_modulus(p.d) <= 256:
        assert type(rep.phase) is bytes
    else:
        assert type(rep.phase) is array and rep.phase.typecode == "l"


class TestRepresent:
    def test_identity(self):
        p = PauliElement.identity(3, 1)
        rep = represent(p)
        assert tuple(rep.perm) == (0, 1, 2) and tuple(rep.phase) == (0, 0, 0)
        assert_containers(rep, p)

    def test_shift(self):
        p = PauliElement.x_op(3, 1, 0)
        rep = represent(p)
        assert tuple(rep.perm) == (1, 2, 0)
        assert tuple(rep.phase) == (0, 0, 0)
        assert_containers(rep, p)

    def test_qubit_xz(self):
        p = PauliElement(2, 1, 0, (1,), (1,))
        rep = represent(p)
        assert tuple(rep.perm) == (1, 0)
        assert tuple(rep.phase) == (0, 2)  # v1 -> zeta^2 v0 = -v0
        assert_containers(rep, p)

    def test_homomorphism(self):
        rng = random.Random(50)
        for _ in range(1000):
            d = rng.choice([2, 3, 4, 5])
            n = rng.randint(1, 2)
            p, q = random_pauli(rng, d, n), random_pauli(rng, d, n)
            pq = multiply(p, q)
            rep, composed = represent(pq), represent(p).compose(represent(q))
            assert rep == composed
            assert (tuple(rep.perm), tuple(rep.phase)) == (composed.perm, composed.phase)
            assert_containers(rep, pq)

    @given(pauli_for_represent())
    @settings(max_examples=60, deadline=None)
    def test_matches_digit_loop(self, p):
        rep = represent(p)
        assert (tuple(rep.perm), tuple(rep.phase)) == represent_reference(p)
        assert_containers(rep, p)

    @pytest.mark.parametrize("d, n", [(128, 1), (128, 2), (130, 2), (131, 2), (257, 2)])
    def test_matches_digit_loop_at_the_byte_edge_and_past_it(self, d, n):
        # db = 256 at d = 128 is the last one-byte phase table; d = 130 and 257 take array('l')
        rng = random.Random(d * n)
        for p in [random_pauli(rng, d, n) for _ in range(3)] + [PauliElement.z_op(d, n, 0, d - 1)]:
            rep = represent(p, bound=d**n)
            assert (tuple(rep.perm), tuple(rep.phase)) == represent_reference(p)
            assert_containers(rep, p)

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 12])
    def test_matches_digit_loop_off_the_support(self, d):
        # X-free, Z-free and scalar elements repeat whole tables; 12^6 states is left out
        rng = random.Random(d)
        for n in range(7):
            if d**n > 12**5:
                continue
            for x_part, z_part in [(False, True), (True, False), (False, False)]:
                support = rng.sample(range(n), rng.randint(0, n))
                a = tuple(rng.randrange(1, d) if x_part and r in support else 0 for r in range(n))
                b = tuple(rng.randrange(1, d) if z_part and r in support else 0 for r in range(n))
                p = PauliElement(d, n, rng.randrange(phase_modulus(d)), a, b)
                rep = represent(p, bound=d**n)
                assert (tuple(rep.perm), tuple(rep.phase)) == represent_reference(p)
                assert_containers(rep, p)

    def test_equality_is_by_value_whatever_the_container(self):
        rng = random.Random(58)
        for _ in range(100):
            d = rng.choice([2, 3, 4, 6])
            n = rng.randint(0, 3)
            p = random_pauli(rng, d, n)
            rep = represent(p)
            as_tuples = PhasePermutation(d, n, tuple(rep.perm), tuple(rep.phase))
            as_array = PhasePermutation(d, n, array("l", rep.perm), rep.phase)
            assert rep == as_tuples == as_array and as_tuples == rep
            if d**n > 1:
                moved = list(rep.perm)
                moved[0], moved[-1] = moved[-1], moved[0]
                assert rep != PhasePermutation(d, n, tuple(moved), rep.phase)
                assert rep != PhasePermutation(d, n, rep.perm, (rep.phase[0] + 1,) + tuple(rep.phase[1:]))
            assert rep != PhasePermutation(d, n + 1, rep.perm, rep.phase)
            assert rep != PhasePermutation(d, n, tuple(rep.perm)[:-1], rep.phase)
        assert PhasePermutation(2, 1, range(2), (0, 0)) != (2, 1, range(2), (0, 0))

    def test_image_matches_the_table(self):
        rng = random.Random(54)
        for _ in range(200):
            d = rng.choice([2, 3, 4, 6, 12])
            n = rng.randint(0, 3)
            p, db = random_pauli(rng, d, n), phase_modulus(d)
            rep = represent(p)
            support = rng.sample(range(d**n), rng.randint(0, min(5, d**n)))
            vec = {i: rng.randrange(db) for i in support}
            expected = {rep.perm[i]: (e + rep.phase[i]) % db for i, e in vec.items()}
            digits = {i: oracle_module._digits(i, d, n) for i in vec}
            assert list(oracle_module._images(p, [vec, {}], digits)) == [expected, {}]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            represent(PauliElement.identity(2, 20))
        with pytest.raises(TooLarge):
            represent(PauliElement.identity(2, 4), bound=8)

    @pytest.mark.parametrize("bound", [0, -5])
    def test_non_positive_bound(self, bound):
        group = validate(2, 1, [PauliElement.z_op(2, 1, 0)])
        with pytest.raises(BadBound, match=f"bound {bound} is not positive"):
            verify_report(group, analyze(group), bound=bound)

    def test_oracle_bound_is_its_argument_or_the_default(self):
        assert oracle_bound() == DEFAULT_BOUND
        assert oracle_bound(64) == 64


def scan_groups(rng, count):
    """Seeded random groups at d in {2, 3, 4, 6, 8, 12}, n <= 3.

    Lifts carry random scalar phases; at composite d every third group is
    built from blocks (a, d/a), whose X parts are not free.
    """
    for k in range(count):
        d = rng.choice([2, 3, 4, 6, 8, 12])
        n = rng.randint(1, 3)
        if k % 3 == 0 and d in (4, 6, 8, 12):
            a = rng.choice([x for x in range(2, d) if d % x == 0])
            yield block_group(rng, d, n, [(a, d // a)] + [(d, d)] * (n - 1))
        else:
            yield random_stabilizer_group(rng, d, n)


class TestScan:
    @pytest.mark.parametrize("with_words", [False, True])
    def test_template_scan_matches_bfs_reference(self, with_words):
        rng = random.Random(53)
        shifted = not_free = 0
        for group in scan_groups(rng, 150):
            d = group.d
            scan = oracle_module._Scan(group, None)
            orbits, pot = scan_reference(scan.reps, scan.size, scan.db, with_words)
            if with_words:
                rows = closure_rows(scan)
            else:
                rows = [[(de,) for de in sorted(set(scan.keys[k])) if de] for k in scan.key_of]
            assert list(zip(scan_orbits(scan), rows)) == orbits
            assert [members[0] for members in scan_orbits(scan)] == [m[0] for m, _ in orbits]
            assert scan_pot(scan) == pot
            shifted += any(g.phase for g in group.generators)
            not_free += any(0 < math.gcd(d, *g.a) < d for g in group.generators if any(g.a))
        assert shifted and not_free

    # db = 2d at even d, d at odd d: while db <= 128 two residues sum in a byte (d = 43, 64), past
    # it each entry takes a mod into bytes (d = 66, 128, 129, 131), and past 256 into an array (d = 257)
    @pytest.mark.parametrize("d", [43, 64, 66, 128, 129, 131, 257])
    def test_scan_matches_bfs_reference_at_the_byte_edges(self, d):
        rng = random.Random(d)
        groups = [random_stabilizer_group(rng, d, n) for n in (1, 1, 2)]
        # unvalidated pairs move by two shifts with random phases, so closure edges leave their position
        groups += [StabilizerGroup(d, n, [random_pauli(rng, d, n) for _ in range(2)]) for n in (1, 2)]
        if d % 2 == 0:  # an X part of order 2: d^2 / 2 orbits of two members
            shift = PauliElement(d, 2, 3, (d // 2, 0), (0, 1))
            groups.append(StabilizerGroup(d, 2, [shift, PauliElement.z_op(d, 2, 1, 2)]))
        moved = 0
        for group in groups:
            scan = oracle_module._Scan(group, None)
            orbits, pot = scan_reference(scan.reps, scan.size, scan.db, with_words=True)
            assert list(zip(scan_orbits(scan), closure_rows(scan))) == orbits
            assert [members[0] for members in scan_orbits(scan)] == [m[0] for m, _ in orbits]
            assert scan_pot(scan) == pot
            edges = scan._template([r.perm for r in scan.reps])[2]
            moved += any(e is not None and p != tp for p, _, tp, e in edges)
        assert moved

    @pytest.mark.parametrize(
        "call",
        [
            # the sweep runs here, so verify_report reads its dimensions from the same scan
            lambda group: verify_report(group, analyze(group)).checks["transitivity"],
            eigenspace_dimensions,
            protected_basis,
            protected_dimension,
        ],
        ids=["verify_report", "eigenspace_dimensions", "protected_basis", "protected_dimension"],
    )
    def test_each_entry_point_scans_once(self, monkeypatch, call):
        calls = Counter()
        real = oracle_module.represent

        def counting(p, bound=None):
            calls[p] += 1
            return real(p, bound)

        monkeypatch.setattr(oracle_module, "represent", counting)
        scans = record_scans(monkeypatch)
        group = d6_group()
        assert call(group)
        assert len(scans) == 1
        assert calls == Counter(group.generators)

    @pytest.mark.parametrize(
        "fixed, detail",
        [
            # orbit(0) shrinks to {0}, so the closure edge of start 1 misses its member
            (0, "closure edge misses its template member"),
            # X^4 now fixes 1 and 5, so start 1 replays the tree edge 0 -> 4 onto 1 itself:
            # every closure edge still lands on its member, but no replay holds 5
            (1, "the replayed orbits miss index 5"),
        ],
    )
    def test_tampered_action_is_an_internal_invariant(self, monkeypatch, fixed, detail):
        monkeypatch.setattr(oracle_module, "represent", tampered_represent(represent, fixed))
        group = x4z4_group()
        with pytest.raises(InternalInvariant) as info:
            verify_report(group, analyze(group))
        assert (info.value.stage, info.value.detail) == ("oracle.scan", detail)
        with pytest.raises(InternalInvariant, match="oracle.scan"):
            protected_dimension(group)

    def test_tampered_orbit_of_zero_that_is_no_subgroup_is_an_internal_invariant(self, monkeypatch):
        # X at d=4 made to fix 2 sends 0 -> 1 -> 3 -> 0: orbit(0) = {0, 1, 3} is no subgroup
        # of Z_4, its coset-minimum grid is {0}, and one orbit of 3 cannot fill 4 indices
        monkeypatch.setattr(oracle_module, "represent", tampered_represent(represent, 2))
        group = validate(4, 1, [PauliElement.x_op(4, 1, 0)])
        with pytest.raises(InternalInvariant) as info:
            verify_report(group, analyze(group))
        assert (info.value.stage, info.value.detail) == (
            "oracle.scan", "1 coset starts of 3 members do not fill 4 indices")

    def test_tampered_x_free_action_is_an_internal_invariant(self, monkeypatch):
        # every edge of Z_3^3 closes on its own template position; with 1 and 2
        # swapped, start 1's self-loop lands on 2, and only that branch checks it
        monkeypatch.setattr(oracle_module, "represent", swapped_x_free_represent(represent))
        group = d6_group()
        with pytest.raises(InternalInvariant) as info:
            verify_report(group, analyze(group))
        assert (info.value.stage, info.value.detail) == (
            "oracle.scan", "closure edge misses its template member")
        with pytest.raises(InternalInvariant, match="oracle.scan"):
            protected_dimension(group)

    def test_row_index_matches_the_per_edge_agreement(self):
        # itemgetter of one index returns a bare item and of none raises, so scans with
        # no closure edge and with one take their own branch
        rng = random.Random(60)
        groups = [validate(3, 2, []), validate(2, 1, [PauliElement.x_op(2, 1, 0)]),
                  x4z4_group(), d6_group(), *scan_groups(rng, 60)]
        for _ in range(30):  # unvalidated, so some keys differ on two edges with one du row
            d, n = rng.choice([2, 3, 4, 6]), rng.randint(1, 2)
            groups.append(StabilizerGroup(d, n, [random_pauli(rng, d, n) for _ in range(rng.randint(1, 3))]))
        edges = Counter()
        split = 0
        for group in groups:
            scan = oracle_module._Scan(group, None)
            first = [scan.edge_row.index(r) for r in range(len(scan.du_rows))]
            expected = {
                tuple(key[e] for e in first): k
                for k, key in enumerate(scan.keys)
                if all(key[e] == key[first[r]] for e, r in enumerate(scan.edge_row))
            }
            assert scan.row_index == expected
            edges[min(len(scan.edge_row), 2)] += 1
            split += len(expected) < len(scan.keys)
        assert edges[0] and edges[1] and edges[2] and split

    def test_x_free_ranges_read_as_equal_tuples(self, monkeypatch):
        # an equal tuple in place of range(d^n) runs every closure edge's member check;
        # the range skips it on X-free self-loops, so both must read the same
        rng = random.Random(59)
        groups = [x4z4_group(), d6_group(), build_model(torus_grid_graph(2, 2), 2).stabilizer]
        groups += [g for g in scan_groups(rng, 60) if g.cardinality <= 64]
        x_free = 0
        for group in groups:
            report = analyze(group)
            with monkeypatch.context() as m:
                m.setattr(oracle_module, "represent", tuple_x_free_represent(represent))
                as_tuples = (verify_report(group, report).to_json_dict(), protected_basis(group),
                             eigenspace_dimensions(group), closure_rows(oracle_module._Scan(group, None)))
            as_ranges = (verify_report(group, report).to_json_dict(), protected_basis(group),
                         eigenspace_dimensions(group), closure_rows(oracle_module._Scan(group, None)))
            assert as_ranges == as_tuples
            x_free += any(not any(g.a) for g in group.generators)
        assert x_free >= 10


class TestEigenspaces:
    def test_trivial_group(self):
        group = validate(3, 2, [])
        assert eigenspace_dimensions(group) == {(): 9}

    def test_single_z(self):
        group = validate(4, 2, [PauliElement.z_op(4, 2, 0)])
        dims = eigenspace_dimensions(group)
        assert len(dims) == 4
        assert set(dims.values()) == {4}

    def test_golden_d8(self):
        dims = eigenspace_dimensions(x4z4_group())
        assert len(dims) == 4
        assert set(dims.values()) == {2}

    def test_counts(self):
        rng = random.Random(51)
        for _ in range(50):
            group = random_stabilizer_group(rng, rng.choice([2, 3, 4, 6, 8]), rng.randint(1, 3))
            dims = eigenspace_dimensions(group)
            assert len(dims) == group.cardinality
            assert sum(dims.values()) == group.d**group.n
            assert len(set(dims.values())) == 1

    @pytest.mark.parametrize(
        "make_groups",
        [
            lambda: [x4z4_group()],
            lambda: [d6_group()],
            lambda: [g for g in scan_groups(random.Random(53), 150) if g.cardinality <= 64],
        ],
        ids=["x4z4_group", "d6_group", "scan_groups"],
    )
    def test_class_weighted_equals_per_orbit_count(self, make_groups):
        shared = False
        for group in make_groups():
            db = phase_modulus(group.d)
            reps = [represent(g) for g in group.generators]
            orbits, _ = scan_reference(reps, group.d**group.n, db, with_words=True)
            naive = {}
            for chi in characters(group):  # the engine's list, as a reference only
                w = chi.values
                consistent = [rows for _, rows in orbits if consistent_with(rows, w, db)]
                naive[w] = len(consistent)
                # at most one class per character: its orbits share one row set
                assert len({tuple(rows) for rows in consistent}) <= 1
            # the oracle lists the characters in its closure's order, so compare as mappings
            assert eigenspace_dimensions(group) == naive
            # orbits sharing closure rows are counted as one class
            shared |= len(Counter(tuple(rows) for _, rows in orbits)) < len(orbits)
        assert shared

    def test_closure_past_its_limit_is_too_large(self):
        # eigenspace_dimensions caps C at d^n: (Z/2)^2 has 4 elements
        units = [(1, 0), (0, 1)]
        assert list(oracle_module._closure(units, 2, 2, limit=4)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        with pytest.raises(TooLarge, match="the span exceeds 3 elements"):
            oracle_module._closure(units, 2, 2, limit=3)


class TestProtectedBasis:
    def test_single_qudit_z(self):
        basis = protected_basis(validate(3, 1, [PauliElement.z_op(3, 1, 0)]))
        assert basis == [{0: 0}]

    def test_bell_like(self):
        group = validate(2, 2, [multiply(PauliElement.x_op(2, 2, 0), PauliElement.x_op(2, 2, 1))])
        basis = protected_basis(group)
        assert sorted(tuple(sorted(v)) for v in basis) == [(0, 3), (1, 2)]
        for vec in basis:
            assert set(vec.values()) == {0}

    def test_golden_d8_supports(self):
        basis = protected_basis(x4z4_group())
        assert sorted(tuple(sorted(v)) for v in basis) == [(0, 4), (2, 6)]

    def test_nontrivial_character(self):
        group = validate(4, 1, [PauliElement.z_op(4, 1, 0)])
        # chi(Z) = xi: eigenvector is v_1
        basis = protected_basis(group, chi=(1,))
        assert basis == [{1: 0}]

    @pytest.mark.parametrize("chi, detail", [((1,), "1 character values for 2 generators"),
                                             ((1, 0, 5), "3 character values for 2 generators")])
    def test_character_length_must_match_the_generators(self, chi, detail):
        with pytest.raises(ValueError, match=detail):
            protected_basis(z_block_group(2, 2, 2), chi)

    def test_every_character_matches_bfs_reference(self):
        rng = random.Random(53)
        checked = 0
        for group in scan_groups(rng, 150):
            if group.cardinality > 64:
                continue
            reps = [represent(g) for g in group.generators]
            size, db = group.d**group.n, phase_modulus(group.d)
            for chi in characters(group):
                basis = protected_basis(group, chi.values)
                reference = chi_basis_reference(reps, size, db, chi.values)
                assert [list(v.items()) for v in basis] == [list(v.items()) for v in reference]
                checked += bool(basis) and any(chi.values)
        assert checked

    def test_unvalidated_groups_match_bfs_reference(self):
        # generators that do not commute, or that yield a scalar, give orbit classes
        # whose key differs on two edges with one du row; no character may reach them
        rng = random.Random(57)
        split = 0
        for _ in range(40):
            d, n = rng.choice([2, 3, 4, 6]), rng.randint(1, 2)
            group = StabilizerGroup(d, n, [random_pauli(rng, d, n) for _ in range(rng.randint(1, 3))])
            reps = [represent(g) for g in group.generators]
            size, db = d**n, phase_modulus(d)
            scan = oracle_module._Scan(group, None)
            split += len(scan.row_index) < len(scan.keys)
            for w in itertools.product(range(d), repeat=len(reps)):
                basis = protected_basis(group, w)
                reference = chi_basis_reference(reps, size, db, w)
                assert [list(v.items()) for v in basis] == [list(v.items()) for v in reference]
        assert split >= 10


class TestClosureRows:
    def test_counts_match(self):
        scan = oracle_module._Scan(x4z4_group(), None)
        assert sum(len(members) for members in scan_orbits(scan)) == 8
        consistent = [rows for rows in closure_rows(scan) if consistent_with(rows, (0, 0), phase_modulus(8))]
        assert len(consistent) == 2


def empty_report(group):
    """A report with no logical pairs, for groups that analyze would reject."""
    return StabilizerReport(group.d, group.n, group.cardinality, 0, (), (), "GENERAL", None, (), None)


@st.composite
def fibre_cases(draw):
    """(group, kind) at d <= 12 and d^n <= 4096.

    kind "valid" is a validated random group; "scaled" multiplies one of its
    generators by a random scalar without validating, so the group may hold
    a scalar; "raw" takes random Paulis, which need not commute.
    """
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12]))
    n = draw(st.integers(min_value=1, max_value=max(k for k in range(1, 13) if d**k <= 4096)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    kind = draw(st.sampled_from(["valid", "scaled", "raw"]))
    if kind == "raw":
        return StabilizerGroup(d, n, [random_pauli(rng, d, n) for _ in range(rng.randint(1, 3))]), kind
    gens = list(random_stabilizer_group(rng, d, n).generators)
    if kind == "scaled" and gens:
        j = rng.randrange(len(gens))
        gens[j] = multiply(PauliElement.scalar(d, n, rng.randrange(phase_modulus(d))), gens[j])
    return StabilizerGroup(d, n, gens), kind


def fibres_against_the_sweep(group, report):
    """verify_report's verdict, whose histogram equals sweep_histogram's; None where both raise alike.

    eigenspace_dimensions raises alike too, or agrees with the sweep character by character.
    """
    try:
        reference = sweep_histogram(group)
    except InternalInvariant as exc:
        for call in (lambda: verify_report(group, report), lambda: eigenspace_dimensions(group)):
            with pytest.raises(InternalInvariant) as info:
                call()
            assert (info.value.stage, info.value.detail) == (exc.stage, exc.detail)
        assert exc.stage == "oracle.histogram"
        return None
    scan = oracle_module._Scan(group, None)
    dims = eigenspace_dimensions(group)
    assert dims == {chi.values: scan.sizes[scan.class_of(chi.values)] for chi in characters(group)}
    assert Counter(dims.values()) == reference
    verdict = verify_report(group, report)
    assert verdict.histogram == reference
    assert verdict.checks["transitivity"] is (len(reference) == 1)
    assert verdict.skipped == {}
    # the fibres count |H| = |C| with no engine value read
    assert sum(verdict.histogram.values()) == group.cardinality
    return verdict


class TestFibres:
    @settings(max_examples=80, deadline=None)
    @given(fibre_cases())
    @example((StabilizerGroup(2, 1, [PauliElement.x_op(2, 1, 0), PauliElement.z_op(2, 1, 0)]), "raw"))
    def test_fibres_match_the_sweep(self, case):
        group, kind = case
        if kind == "valid":
            assert fibres_against_the_sweep(group, analyze(group)).passed
        else:
            fibres_against_the_sweep(group, empty_report(group))

    def test_seeded_unvalidated_groups_reach_both_outcomes(self):
        rng = random.Random(61)
        outcomes = Counter()
        for _ in range(150):
            d, n = rng.choice([2, 3, 4, 6]), rng.randint(1, 2)
            group = StabilizerGroup(d, n, [random_pauli(rng, d, n) for _ in range(rng.randint(1, 3))])
            outcomes[fibres_against_the_sweep(group, empty_report(group)) is None] += 1
        assert outcomes[True] >= 20 and outcomes[False] >= 20  # raised, and gave a histogram


class TestVerifyReport:
    def test_peak_memory_on_the_d4_twist(self):
        # 4^8 states and seven generators, six of them X-free: their actions hold no
        # table, and the others hold C ints; tuples of boxed ints peaked at 28.9 MiB,
        # boxed phase tuples with per-orbit member lists at 13.4 MiB, array('l') members
        # grown one replayed member at a time at 3.3 MiB, and column replay at 2.9 MiB
        model = build_model(torus_grid_graph(2, 2), 4)
        group = apply_twist(model, (0, 0), [ShiftPair((0, 1), 4, 2, ((("h", 0, 0), False),)),
                                            ShiftPair((1, 0), 4, 2, ((("v", 0, 0), False),))])
        report = analyze(group)
        tracemalloc.start()
        try:
            verdict = verify_report(group, report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.passed and verdict.skipped == {}
        assert peak < 3.5 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_golden_d8(self):
        group = x4z4_group()
        verdict = verify_report(group, analyze(group))
        assert verdict.passed
        assert verdict.histogram == {2: 4}
        assert verdict.checks["dimension"]
        assert verdict.checks["transitivity"]

    def test_corrupted_dimension(self):
        group = x4z4_group()
        bad = dataclasses.replace(analyze(group), dim_protected=3)
        verdict = verify_report(group, bad)
        assert not verdict.passed
        assert verdict.checks["dimension"] is False

    def test_free_cases(self):
        for d in (2, 3, 4):
            for n in (1, 2, 3):
                for k in range(0, n + 1):
                    group = validate(d, n, [PauliElement.z_op(d, n, i) for i in range(k)])
                    verdict = verify_report(group, analyze(group))
                    assert verdict.passed, (d, n, k, verdict.details)

    def test_represents_each_operator_once(self, monkeypatch):
        calls = Counter()
        original = oracle_module.represent

        def counting(p, bound=None):
            calls[p] += 1
            return original(p, bound)

        monkeypatch.setattr(oracle_module, "represent", counting)
        model = build_model(torus_grid_graph(2, 2), 2)
        for group in (x4z4_group(), d6_group(), model.stabilizer):
            calls.clear()
            report = analyze(group)
            verdict = verify_report(group, report)
            assert verdict.passed and "transitivity" in verdict.checks
            assert report.logical_operators
            # each generator exactly once; logical operators map only the protected basis
            assert sum(calls.values()) == len(group.generators)
            assert calls == Counter(group.generators)
            for pair in report.logical_operators:
                assert calls[pair.z_like] == calls[pair.x_like] == 0

    def test_skipped_sweep_builds_no_word_scan(self, monkeypatch):
        scans = record_scans(monkeypatch)
        group = z_block_group(2, 16, 16)
        verdict = verify_report(group, analyze(group))
        # 2^16 characters with 2^16 distinct images, each visited once by the fibres
        assert verdict.skipped == {}
        assert verdict.checks["transitivity"]
        assert verdict.histogram == {1: 2**16}
        assert verdict.passed
        assert len(scans) == 1
        assert verdict.to_json_dict()["skipped"] == {}

    def test_nothing_skipped_when_the_sweep_fits(self):
        group = x4z4_group()
        verdict = verify_report(group, analyze(group))
        assert verdict.skipped == {}
        assert verdict.to_json_dict()["skipped"] == {}

    def test_eigenspace_dimensions_lists_the_3x3_torus(self):
        # 2^18 states and 2^16 characters, each read by class_of: only the state bound limits it
        group = build_model(torus_grid_graph(3, 3), 2).stabilizer
        with pytest.raises(TooLarge, match="exceeds the oracle bound"):
            eigenspace_dimensions(group)
        dims = eigenspace_dimensions(group, bound=2**18)
        assert len(dims) == 2**16 and set(dims.values()) == {4}
        assert dims.keys() == {chi.values for chi in characters(group)}

    @pytest.mark.parametrize(
        "make_group",
        [
            x4z4_group,
            d6_group,
            lambda: build_model(torus_grid_graph(2, 2), 2).stabilizer,
            lambda: build_model(torus_grid_graph(2, 3), 2).stabilizer,
        ],
        ids=["x4z4", "d6", "torus2x2_d2", "torus2x3_d2"],
    )
    def test_histogram_makes_no_reduction(self, monkeypatch, make_group):
        group = make_group()
        report = analyze(group)
        calls = count_reductions(monkeypatch)
        verdict = verify_report(group, report)
        assert verdict.checks["transitivity"]
        # the powers' membership solves reuse analyze's reduction, and the fibres make none;
        # eigenspace_dimensions closes C itself, where the engine's characters() makes one
        assert calls == []
        eigenspace_dimensions(group)
        assert calls == []
        characters(group)
        assert len(calls) == 1

    def test_dropped_block_with_inflated_cardinality_fails(self):
        # 2x2 torus at d=3: drop one of the two logical pairs and its divisor, and triple
        # the cardinality so that prod s_i * |H| = d^n still holds; the fibres count 729
        group = build_model(torus_grid_graph(2, 2), 3).stabilizer
        report = analyze(group)
        assert (report.cardinality, report.quotient_divisors) == (729, (3, 3))
        bad = dataclasses.replace(report, cardinality=2187, quotient_divisors=(3,),
                                  logical_operators=report.logical_operators[:1])
        verdict = verify_report(group, bad)
        assert not verdict.passed
        assert verdict.checks == {"dimension": True, "logical_action": True, "relations": True,
                                  "irreducibility_count": False, "transitivity": True}
        assert verdict.details == {"irreducibility_count": "oracle |H| 729 != reported 2187"}
        assert verdict.histogram == {9: 729}

    @pytest.mark.parametrize("p", [2, 3])
    def test_cardinality_off_by_a_prime_factor_of_d_fails(self, p):
        group = z_block_group(6, 2, 1)
        report = analyze(group)
        card = report.cardinality
        assert report.quotient_divisors == (6,)
        alone = dataclasses.replace(report, cardinality=card * p)
        # the divisor shrinks with it, so prod s_i * |H| = d^n still holds
        balanced = dataclasses.replace(alone, quotient_divisors=(6 // p,))
        for bad, detail in ((alone, "divisors inconsistent with the group order"),
                            (balanced, f"oracle |H| {card} != reported {card * p}")):
            verdict = verify_report(group, bad)
            assert not verdict.passed
            assert verdict.details == {"irreducibility_count": detail}

    @pytest.mark.parametrize(
        "make_group, classification, detail",
        [
            (lambda: validate(2, 2, [PauliElement(2, 2, 0, (0, 0), (1, 1))]), "GENERAL",
             "GENERAL needs a quotient divisor below 2"),
            (lambda: validate(2, 2, [PauliElement(2, 2, 0, (0, 0), (1, 1))]), "FREE(2)",
             "FREE(2) needs |H| = 2^2, oracle |H| 2"),
            (lambda: validate(2, 2, [PauliElement(2, 2, 0, (0, 0), (1, 1))]), "SHIFTED_FREE(7)",
             "SHIFTED_FREE(7) needs |H| = 2^7, oracle |H| 2"),
            # |H| = 4^1 holds, but the divisors (2, 2) are not the one divisor 4 of rank 1
            (lambda: validate(4, 2, [PauliElement.z_op(4, 2, 0, 2), PauliElement.z_op(4, 2, 1, 2)]), "FREE(1)",
             "FREE(1) needs 1 quotient divisors, all 4"),
        ],
    )
    def test_classification_contradicting_the_counts_fails(self, make_group, classification, detail):
        group = make_group()
        report = analyze(group)
        assert verify_report(group, report).passed
        kind, _, rank = classification.partition("(")
        bad = dataclasses.replace(report, kind=kind, rank=int(rank[:-1]) if rank else None)
        assert bad.classification == classification
        verdict = verify_report(group, bad)
        assert not verdict.passed
        assert verdict.checks == {"dimension": True, "logical_action": True, "relations": True,
                                  "irreducibility_count": False, "transitivity": True}
        assert verdict.details == {"irreducibility_count": detail}

    def test_shifted_free_is_not_told_from_free(self):
        # SHIFTED_FREE(r) and FREE(r) differ only in tau(H)'s module structure, which the
        # oracle does not read: both have |H| = d^r and n - r divisors d
        group = validate(2, 2, [PauliElement(2, 2, 0, (0, 0), (1, 1))])
        report = analyze(group)
        assert report.classification == "FREE(1)"
        assert verify_report(group, dataclasses.replace(report, kind="SHIFTED_FREE")).passed

    def test_wrong_divisor_and_pairs_swapped_between_blocks_fail(self):
        group = d6_group()
        report = analyze(group)
        p0, p1 = report.logical_operators
        assert report.quotient_divisors == (3, 3)
        # the product still matches |H|, but pair 0 no longer braids by xi^(6/1)
        wrong = dataclasses.replace(report, quotient_divisors=(1, 9),
                                    logical_operators=(dataclasses.replace(p0, divisor=1), p1))
        swapped = dataclasses.replace(report, logical_operators=(
            dataclasses.replace(p0, x_like=p1.x_like), dataclasses.replace(p1, x_like=p0.x_like)))
        for bad in (wrong, swapped):
            verdict = verify_report(group, bad)
            assert not verdict.passed
            assert verdict.details == {"relations": "pair 0 braiding phase mismatch"}

    def test_divisors_are_checked_against_the_oracle_dimension(self, monkeypatch):
        group = build_model(torus_grid_graph(2, 2), 3).stabilizer
        report = analyze(group)
        monkeypatch.setattr(oracle_module, "_protected_dimension", lambda scan: 3)
        verdict = verify_report(group, report)
        assert verdict.details == {"dimension": "oracle 3 != reported 9",
                                   "irreducibility_count": "divisors multiply to 9 != oracle dimension 3"}

    def test_relations_solve_only_the_powers(self, monkeypatch):
        calls = []
        real = oracle_module.membership

        def counting(group, p):
            calls.append(p)
            return real(group, p)

        monkeypatch.setattr(oracle_module, "membership", counting)
        for group in (x4z4_group(), d6_group(), build_model(torus_grid_graph(2, 2), 3).stabilizer):
            report = analyze(group)
            calls.clear()
            assert verify_report(group, report).checks["relations"]
            # commutators are scalars, read from commutation_phase; each power is solved
            assert len(calls) == 2 * len(report.logical_operators)

    def test_mutated_pairs_fail_as_dense_products_do(self):
        group = build_model(torus_grid_graph(2, 2), 3).stabilizer
        report = analyze(group)
        p0, p1 = report.logical_operators
        swapped = (p0, dataclasses.replace(p1, z_like=p1.x_like, x_like=p1.z_like))
        mixed = (p0, dataclasses.replace(p1, x_like=p0.x_like))
        for pairs, detail in ((swapped, "pair 1 braiding phase mismatch"),
                              (mixed, "pairs 0,1 do not commute modulo H")):
            verdict = verify_report(group, dataclasses.replace(report, logical_operators=pairs))
            assert not verdict.passed
            assert verdict.checks == {"dimension": True, "logical_action": True, "relations": False,
                                      "irreducibility_count": True, "transitivity": True}
            assert verdict.details == {"relations": detail}
            assert relations_reference(group, pairs) == (False, detail)

    def test_relations_match_dense_products_on_random_mutations(self):
        rng = random.Random(71)
        seen = Counter()
        for _ in range(100):
            group = random_stabilizer_group(rng, rng.choice([3, 4, 6, 8]), rng.randint(1, 3))
            pairs = list(analyze(group).logical_operators)
            if not pairs:
                continue
            i, j = rng.randrange(len(pairs)), rng.randrange(len(pairs))
            mutation = rng.choice(["swap", "borrow_x", "borrow_z", "phase", "none"])
            if mutation == "phase":  # braids as before, but its power may leave H
                scalar = PauliElement.scalar(group.d, group.n, 1)
                pairs[i] = dataclasses.replace(pairs[i], z_like=multiply(scalar, pairs[i].z_like))
            elif mutation == "swap":
                pairs[i] = dataclasses.replace(pairs[i], z_like=pairs[i].x_like, x_like=pairs[i].z_like)
            elif mutation == "borrow_x":
                pairs[i] = dataclasses.replace(pairs[i], x_like=pairs[j].x_like)
            elif mutation == "borrow_z":
                pairs[i] = dataclasses.replace(pairs[i], z_like=pairs[j].z_like)
            ok, detail = relations_reference(group, pairs)
            seen[detail and detail.split()[0] + " " + detail.split()[-1]] += 1
            report = dataclasses.replace(analyze(group), logical_operators=tuple(pairs))
            verdict = verify_report(group, report)
            assert verdict.checks["relations"] is ok
            assert verdict.details.get("relations") == detail
        # a pass and each kind of failure: braiding, power and cross-pair
        assert set(seen) == {None, "pair mismatch", "pair group", "pairs H"}

    def test_unfixed_basis_is_an_internal_invariant(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_maps_to_multiple", lambda *args, **kw: False)
        group = x4z4_group()
        with pytest.raises(InternalInvariant) as info:
            verify_report(group, analyze(group))
        assert info.value.stage == "oracle.basis"
        assert isinstance(info.value, AssertionError)

    def test_logical_action_checks_one_vector_per_image(self):
        # <Z_1> on 14 qubits: 2^13 protected vectors and 13 logical pairs; a scan of the
        # whole basis per image took about 4x longer per qubit
        group = validate(2, 14, [PauliElement.z_op(2, 14, 0)])
        report = analyze(group)
        start = time.perf_counter()
        verdict = verify_report(group, report)
        assert time.perf_counter() - start < 5
        assert verdict.passed and verdict.checks["logical_action"]

    def test_agreement_random(self):
        rng = random.Random(52)
        for _ in range(60):
            group = random_stabilizer_group(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 3))
            report = analyze(group)
            assert protected_dimension(group) == report.dim_protected
            assert verify_report(group, report).passed
