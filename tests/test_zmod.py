import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditstab import zmod
from quditstab.stabilizer import validate
from quditstab.symplectic import perp
from quditstab.zmod import (
    Submodule,
    ZdMatrix,
    smith_normal_form,
    vec_scale,
)
from tests.helpers import (
    brute_span,
    count_reductions,
    enumerate_elements_reference,
    record_replays,
    smith_diagonal,
    smith_normal_form_reference,
    smith_u,
    smith_u_inv,
    smith_v,
    smith_v_inv,
    solve_reference,
)


def random_matrix(rng, d, r, c):
    return ZdMatrix.from_rows(d, [[rng.randrange(d) for _ in range(c)] for _ in range(r)], cols=c)


class TestSmithNormalForm:
    def test_zero_matrix(self):
        s = smith_normal_form(ZdMatrix.zeros(6, 2, 2))
        assert s.diag == (6, 6)

    def test_identity(self):
        s = smith_normal_form(ZdMatrix.identity(6, 2))
        assert s.diag == (1, 1)

    def test_cyclic_span(self):
        # rows (2,0),(0,3) over Z_6 span a cyclic module of order 6
        a = ZdMatrix.from_rows(6, [(2, 0), (0, 3)])
        s = smith_normal_form(a)
        assert s.diag == (1, 6)
        assert (smith_u(s) @ a @ smith_v(s)).entries == smith_diagonal(s).entries
        # the first basis vector generates the whole span
        e1 = smith_v_inv(s).row(0)
        span = brute_span([(2, 0), (0, 3)], 6, 2)
        assert brute_span([e1], 6, 2) == span
        assert len(span) == 6

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 9, 12])
    def test_random_contract(self, d):
        # tall shapes are those of transposed generator matrices; the
        # transforms are the dense references built from the recorded operations
        rng = random.Random(d)
        for _ in range(60):
            r, c = rng.randint(0, 8), rng.randint(0, 4)
            a = random_matrix(rng, d, r, c)
            s = smith_normal_form(a)
            u, v = smith_u(s), smith_v(s)
            assert (u @ a @ v).entries == smith_diagonal(s).entries
            assert (u @ smith_u_inv(s)).entries == ZdMatrix.identity(d, r).entries
            assert (v @ smith_v_inv(s)).entries == ZdMatrix.identity(d, c).entries
            assert math.gcd(u.det(), d) == 1
            assert math.gcd(v.det(), d) == 1
            for x, y in zip(s.diag, s.diag[1:]):
                assert y % x == 0
            for x in s.diag:
                assert d % x == 0

    @given(
        st.integers(min_value=2, max_value=9),
        st.lists(st.lists(st.integers(min_value=0, max_value=11), min_size=3, max_size=3), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_divisor_chain(self, d, rows):
        a = ZdMatrix.from_rows(d, rows, cols=3)
        s = smith_normal_form(a)
        assert (smith_u(s) @ a @ smith_v(s)).entries == smith_diagonal(s).entries
        for x, y in zip(s.diag, s.diag[1:]):
            assert y % x == 0


@st.composite
def smith_systems(draw, moduli=(2, 4, 6, 12, 360, 2**64)):
    """A matrix with r, c <= 8 at d up to 2^64, and a right-hand side.

    Entries mix uniform residues with zero divisors; half the right-hand
    sides are images a @ x, the others uniform (often unsolvable).
    """
    d = draw(st.sampled_from(moduli))
    r = draw(st.integers(min_value=0, max_value=8))
    c = draw(st.integers(min_value=0, max_value=8))
    special = sorted({0, 1} | {d // p for p in (2, 3) if d % p == 0})
    entry = st.one_of(st.integers(min_value=0, max_value=d - 1), st.sampled_from(special))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    a = ZdMatrix.from_rows(d, rows, cols=c)
    if draw(st.booleans()):
        b = a.mul_vector(draw(st.lists(entry, min_size=c, max_size=c)))
        return a, b, True
    return a, tuple(draw(st.lists(entry, min_size=r, max_size=r))), False


# (matrix, operations, one operation its reduction must record there): the
# pivot 4 (gcd 4, below 6's gcd 6) leaves 2 below and beside it, so a second
# round at k = 0 swaps a column in (the dirty loop); the pivot 10 needs the
# unit 5 to become gcd(10, 12) = 2; the pivot 2 (gcd 2, below 3's gcd 3)
# divides its row and column but not the 3 past them, so row 0 += row 1; at
# d = 8 the unit 3 beats the smaller 2, is swapped in and scaled by 3 to 1,
# and one round clears the row
BRANCH_EXAMPLES = [
    (ZdMatrix.from_rows(12, [(4, 6), (6, 4)]), "col_ops", (0, 0, 1, 0)),
    (ZdMatrix.from_rows(12, [(10,)]), "row_ops", (2, 0, 0, 5)),
    (ZdMatrix.from_rows(12, [(2, 0), (0, 3)]), "row_ops", (1, 0, 1, 1)),
    (ZdMatrix.from_rows(8, [(2, 3)]), "row_ops", (2, 0, 0, 3)),
]


@st.composite
def prime_power_matrices(draw):
    """An r x c matrix, r, c <= 8, at d = 2^16, 3^40 or 2^64, with entries p^e * u of every valuation e."""
    p, top = draw(st.sampled_from([(2, 16), (3, 40), (2, 64)]))
    d = p**top
    r = draw(st.integers(min_value=0, max_value=8))
    c = draw(st.integers(min_value=0, max_value=8))
    entry = st.builds(lambda e, u: p**e * u % d, st.integers(0, top), st.integers(0, d - 1))
    return ZdMatrix.from_rows(d, draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)), c)


class TestSparseSmith:
    @given(smith_systems(moduli=(2, 6, 12, 360, 2**64)))
    @example((ZdMatrix.zeros(6, 0, 3), (), True))
    @example((ZdMatrix.zeros(6, 3, 0), (0, 0, 0), True))
    @settings(max_examples=300, deadline=None)
    def test_operations_match_the_dense_reference(self, system):
        # the column walk touches only rows that can change, so it records what the dense loop does
        a, _, _ = system
        s, ref = smith_normal_form(a), smith_normal_form_reference(a)
        assert (s.shape, s.diag, s.row_ops, s.col_ops) == (ref.shape, ref.diag, ref.row_ops, ref.col_ops)

    @pytest.mark.parametrize("a, ops, witness", BRANCH_EXAMPLES)
    def test_branch_examples(self, a, ops, witness):
        s, ref = smith_normal_form(a), smith_normal_form_reference(a)
        assert (s.diag, s.row_ops, s.col_ops) == (ref.diag, ref.row_ops, ref.col_ops)
        assert witness in getattr(s, ops)

    @given(prime_power_matrices())
    @settings(max_examples=200, deadline=None)
    def test_one_round_per_pivot_at_a_prime_power(self, a):
        # per pivot k: a row swap, a column swap, a unit scale, r - k - 1 row and c - k - 1 column additions
        s = smith_normal_form(a)
        r, c = a.shape
        assert len(s.row_ops) + len(s.col_ops) <= sum(r + c - 2 * k + 1 for k in range(min(r, c)))


class TestSmithSolve:
    @given(smith_systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_transform_reference(self, system):
        a, b, solvable = system
        s = smith_normal_form(a)
        x = s.solve(b)
        assert x == solve_reference(s, b)
        if solvable:
            assert x is not None
        if x is not None:
            assert a.mul_vector(x) == b

    @given(smith_systems(moduli=(2, 6, 12, 360, 2**64)))
    @settings(max_examples=200, deadline=None)
    def test_transpose_is_the_form_of_the_transpose(self, system):
        at, b, solvable = system
        t = smith_normal_form(at.transpose()).transpose()
        assert t.shape == at.shape
        assert smith_u(t) @ at @ smith_v(t) == smith_diagonal(t)
        x = t.solve(b)
        assert x == solve_reference(t, b)
        if solvable:
            assert x is not None
        if x is not None:
            assert at.mul_vector(x) == b

    def test_solve_builds_no_transform(self, monkeypatch):
        forms = []
        real = zmod.smith_normal_form

        def recording(mat):
            forms.append(real(mat))
            return forms[-1]

        monkeypatch.setattr(zmod, "smith_normal_form", recording)
        widths = record_replays(monkeypatch)
        rng = random.Random(5)
        for d in (6, 360, 2**64):
            a = random_matrix(rng, d, 5, 4)
            assert zmod.smith_normal_form(a).solve(a.mul_vector((1, 2, 3, 4))) is not None
            zmod.smith_normal_form(a).solve(tuple(rng.randrange(d) for _ in range(5)))  # mostly unsolvable
            module = Submodule(d, 4, a.entries)
            assert module.contains(a.row(0))
        assert len(forms) == 9
        # a solve replays its one vector; a block replay would pick columns of a transform
        assert widths == []
        assert len(module.quasi_basis()) == module.rank
        assert widths == [module.rank]


class TestSolveLinear:
    def test_identity(self):
        assert smith_normal_form(ZdMatrix.identity(5, 3)).solve((1, 2, 3)) == (1, 2, 3)

    def test_no_solution(self):
        assert smith_normal_form(ZdMatrix.from_rows(4, [[2]])).solve((1,)) is None

    def test_witness(self):
        x = smith_normal_form(ZdMatrix.from_rows(4, [[2]])).solve((2,))
        assert x is not None and (2 * x[0]) % 4 == 2

    def test_exhaustive_consistency(self):
        rng = random.Random(0)
        for _ in range(120):
            d = rng.choice([2, 3, 4, 6])
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, d, r, c)
            b = tuple(rng.randrange(d) for _ in range(r))
            x = smith_normal_form(a).solve(b)
            brute = any(
                a.mul_vector(v) == b for v in itertools.product(range(d), repeat=c)
            )
            if x is None:
                assert not brute
            else:
                assert a.mul_vector(x) == b


@st.composite
def submodule_pairs(draw):
    """Two submodules of (Z/dZ)^m, d in {12, 360, 2^64} and m <= 5, each generator scaled by a non-unit or 1."""
    d = draw(st.sampled_from((12, 360, 2**64)))
    m = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=0, max_value=d - 1)
    generator = st.tuples(st.sampled_from((1, 2, 3, 4, 6, 2**32)), st.tuples(*[entry] * m)).map(
        lambda sv: tuple(sv[0] * x for x in sv[1]))
    return tuple(Submodule(d, m, draw(st.lists(generator, max_size=4))) for _ in range(2))


class TestSubmodule:
    def test_invariant_factors_examples(self):
        assert Submodule(6, 2, []).invariant_factors == ()
        assert Submodule(6, 2, [(2, 0), (0, 3)]).invariant_factors == (6,)
        assert Submodule(4, 2, [(2, 0), (0, 2)]).invariant_factors == (2, 2)

    def test_smith_reduces_the_reduced_generators(self, monkeypatch):
        # the rows are reduced once: the Smith form's matrix holds the generator tuples themselves
        sub = Submodule(6, 3, [(7, 8, 9), [1, 2, 3]])
        assert sub.generators == ((1, 2, 3), (1, 2, 3))
        expected = smith_normal_form(ZdMatrix.from_rows(6, sub.generators))
        calls = count_reductions(monkeypatch)
        assert sub.smith == expected
        assert len(calls) == 1 and calls[0].entries is sub.generators and calls[0].shape == (2, 3)
        dropped = Submodule(6, 3, [(6, 0, -6), (1, 2, 3)])
        assert dropped.generators == ((1, 2, 3),)
        assert dropped.smith == smith_normal_form(ZdMatrix.from_rows(6, [(1, 2, 3)]))
        assert Submodule(6, 3, []).smith.shape == (0, 3)
        with pytest.raises(ValueError):
            Submodule(6, 3, [(1, 2)])

    @pytest.mark.parametrize("d", [2, 6, 2**64])
    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_full_equals_the_checked_identity(self, d, m):
        full = Submodule.full(d, m)
        checked = Submodule(d, m, ZdMatrix.identity(d, m).entries)
        assert full.generators == checked.generators
        assert full.smith == checked.smith
        assert full.cardinality == d**m

    def test_full_and_empty_perp_build_no_checked_matrix(self, monkeypatch):
        # the identity rows are canonical as built, so no ZdMatrix is checked and reduced for them
        group = validate(6, 2, [])
        expected = Submodule(6, 4, ZdMatrix.identity(6, 4).entries)

        def refuse(self):
            raise AssertionError("ZdMatrix.__post_init__ called")

        monkeypatch.setattr(ZdMatrix, "__post_init__", refuse)
        assert Submodule.full(6, 3).generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        whole = perp(group.space, group.tau_image)
        assert whole.generators == expected.generators
        assert whole.smith == expected.smith and whole.invariant_factors == (6,) * 4

    def test_cardinality_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(100):
            d = rng.choice([2, 3, 4, 6, 8])
            m = rng.randint(1, 3)
            gens = [tuple(rng.randrange(d) for _ in range(m)) for _ in range(rng.randint(0, 3))]
            sub = Submodule(d, m, gens)
            span = brute_span(gens, d, m)
            assert sub.cardinality == len(span)
            assert set(sub.enumerate_elements()) == span
            v = tuple(rng.randrange(d) for _ in range(m))
            assert sub.contains(v) == (v in span)

    def test_quasi_basis_orders(self):
        sub = Submodule(6, 2, [(2, 0), (0, 3)])
        qb = sub.quasi_basis()
        assert [o for _, o in qb] == [6]
        assert brute_span([qb[0][0]], 6, 2) == brute_span(sub.generators, 6, 2)

    def test_intersection_brute(self):
        rng = random.Random(2)
        for _ in range(60):
            d = rng.choice([2, 3, 4, 6])
            g1 = [tuple(rng.randrange(d) for _ in range(2)) for _ in range(rng.randint(0, 2))]
            g2 = [tuple(rng.randrange(d) for _ in range(2)) for _ in range(rng.randint(0, 2))]
            n1, n2 = Submodule(d, 2, g1), Submodule(d, 2, g2)
            meet = set(n1.intersection(n2).enumerate_elements())
            assert meet == brute_span(g1, d, 2) & brute_span(g2, d, 2)

    @given(submodule_pairs())
    @settings(max_examples=150, deadline=None)
    def test_intersection_without_enumeration(self, pair):
        # A∩B ⊆ A, B and |A∩B|·|A+B| = |A|·|B| pin the intersection down at any d
        a, b = pair
        meet = a.intersection(b)
        assert a.contains_module(meet) and b.contains_module(meet)
        join = Submodule(a.modulus, a.ambient_rank, a.generators + b.generators)
        assert meet.cardinality * join.cardinality == a.cardinality * b.cardinality


@st.composite
def enumerable_submodules(draw):
    """A zero, full or random submodule with at most 1728 elements.

    At d = 2^64 the entries are multiples of 2^60, so every order is at most 16.
    """
    d = draw(st.sampled_from((2, 3, 4, 6, 12, 2**64)))
    m = draw(st.integers(min_value=0, max_value=3))
    kind = draw(st.sampled_from(("zero", "full", "random")))
    if kind == "zero":
        return Submodule.zero(d, m)
    if kind == "full" and d**m <= 1728:
        return Submodule.full(d, m)
    unit = 2**60 if d == 2**64 else 1
    entry = st.integers(min_value=0, max_value=d // unit - 1).map(lambda x: x * unit)
    gens = draw(st.lists(st.tuples(*[entry] * m), max_size=3))
    return Submodule(d, m, gens)


class TestEnumerateElements:
    @given(enumerable_submodules())
    @settings(max_examples=150, deadline=None)
    def test_order_matches_the_product_fold(self, sub):
        assert list(sub.enumerate_elements()) == enumerate_elements_reference(sub)

    def test_orders_of_2_64_are_stepped_lazily(self):
        # itertools.product would build a tuple of each coefficient range first
        d = 2**64
        sub = Submodule.full(d, 2)
        (_, o1), (vec, o2) = sub.quasi_basis()
        assert (o1, o2) == (d, d)
        first = list(itertools.islice(sub.enumerate_elements(), 4))
        assert first == [vec_scale(k, vec, d) for k in range(4)]


class TestVInvRows:
    @given(smith_systems(moduli=(2, 6, 12, 360, 2**64)))
    @settings(max_examples=200, deadline=None)
    def test_rows_invert_the_transform_reference(self, system):
        a, _, _ = system
        s = smith_normal_form(a)
        d, c = a.modulus, a.cols
        last = [c - 1] if c else []
        with pytest.MonkeyPatch.context() as mp:
            widths = record_replays(mp)
            rows = s.v_inv_rows(range(c))
            picked = s.v_inv_rows(last)
        assert widths == [c, len(last)]
        v_inv = ZdMatrix.from_rows(d, rows, c)
        assert v_inv @ smith_v(s) == ZdMatrix.identity(d, c)
        assert v_inv == smith_v_inv(s)
        assert picked == [rows[i] for i in last]


class TestVColumns:
    @given(smith_systems(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_columns_match_the_transform_reference(self, system, data):
        a, _, _ = system
        s = smith_normal_form(a)
        d, c = a.modulus, a.cols
        pick = st.tuples(st.integers(min_value=0, max_value=max(c - 1, 0)),
                         st.integers(min_value=0, max_value=d - 1))
        picked = data.draw(st.lists(pick, max_size=c))
        with pytest.MonkeyPatch.context() as mp:
            widths = record_replays(mp)
            columns = s.v_columns(picked)
        assert widths == [len(picked)]
        v = smith_v(s)
        assert columns == [vec_scale(scale, v.col(i), d) for i, scale in picked]


class TestKernelMatrix:
    @given(smith_systems(moduli=(2, 6, 12, 360, 2**64)))
    @settings(max_examples=200, deadline=None)
    def test_smith_kernel_matches_transform_reference(self, system):
        a, _, _ = system
        s = smith_normal_form(a)
        with pytest.MonkeyPatch.context() as mp:
            widths = record_replays(mp)
            kernel = s.kernel()
        assert widths == [len(kernel)]
        d = a.modulus
        diag = s.diag + (d,) * (a.cols - len(s.diag))
        v = smith_v(s)
        assert kernel == [vec_scale(d // x, v.col(i), d) for i, x in enumerate(diag) if x != 1]

    def test_kernel(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.choice([2, 3, 4, 6])
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, d, r, c)
            ker = Submodule(d, c, smith_normal_form(a).kernel())
            brute = {
                v for v in itertools.product(range(d), repeat=c)
                if not any(a.mul_vector(v))
            }
            assert set(ker.enumerate_elements()) == brute
