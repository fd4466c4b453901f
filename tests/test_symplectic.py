import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quditstab.symplectic as symplectic_module
from quditstab import zmod
from quditstab.errors import Degenerate, NotFreeSymplectic, NotIsotropic, NotLagrangian
from quditstab.heisenberg import lift_symplectic
from quditstab.pauli import commutation_phase, from_module_vector
from quditstab.symplectic import (
    SymplecticSpace,
    classify_isotropic_block,
    extend_isotropic_basis,
    gram_blocks,
    lagrangian_canonical_form,
    perp,
    structure_decomposition,
    symplectic_basis,
)
from quditstab.zmod import Submodule, ZdMatrix, vec_add, vec_scale
from tests.helpers import (
    assert_symplectic_basis,
    brute_span,
    count_pairings,
    count_reductions,
    divisors,
    radical_reference,
    random_isotropic_vectors,
    random_symplectic_matrix,
    record_replays,
    standard_gram,
)


@st.composite
def standard_vector_pairs(draw):
    """Two vectors of the standard module at composite d, up to 2^64."""
    d = draw(st.sampled_from([4, 6, 12, 360, 2**64]))
    n = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(st.integers(min_value=0, max_value=d - 1), min_size=2 * n, max_size=2 * n)
    return d, n, draw(vector), draw(vector)


@st.composite
def pairing_table_cases(draw):
    """(d, n, us, vs): lists of up to 6 vectors, each sparse (at most two nonzero
    coordinates) or dense with entries in [-3d, 3d], so zero, negative and
    unreduced, at d up to 2^64."""
    d = draw(st.sampled_from([2, 6, 12, 360, 2**64]))
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3 * d, max_value=3 * d)
    sparse = st.dictionaries(st.integers(min_value=0, max_value=2 * n - 1), entry, max_size=2).map(
        lambda nonzero: tuple(nonzero.get(k, 0) for k in range(2 * n)))
    vector = st.one_of(sparse, st.tuples(*[entry] * (2 * n)))
    return d, n, draw(st.lists(vector, max_size=6)), draw(st.lists(vector, max_size=6))


def carrier_modulo_case(d: int, n: int, gens):
    """(space, gens, modulo gens, carrier set, radical set), the modulo generated by the radical."""
    space = SymplecticSpace(n, d)
    carrier, radical = radical_reference(space, gens)
    return space, gens, sorted(radical), carrier, radical


@st.composite
def carrier_modulo_pairs(draw):
    """A carrier of rank <= 4 and a modulo inside its radical, with brute-force sets.

    Generators are random vectors times a random divisor of d, so Gram
    entries share factors often.  Half the time the modulo is the whole
    radical, so the induced form is nondegenerate; otherwise it is
    generated by a few radical elements.
    """
    d = draw(st.sampled_from([2, 4, 6, 8, 12]))
    n = draw(st.integers(min_value=1, max_value=2))
    scaled = st.tuples(
        st.sampled_from(divisors(d)),
        st.tuples(*[st.integers(min_value=0, max_value=d - 1)] * (2 * n)),
    ).map(lambda sv: vec_scale(sv[0], sv[1], d))
    gens = draw(st.lists(scaled, max_size=4))
    case = carrier_modulo_case(d, n, gens)
    if draw(st.booleans()):
        return case
    radical = case[2]
    return case[:2] + (draw(st.lists(st.sampled_from(radical), max_size=3)),) + case[3:]


@st.composite
def prime_power_generators(draw):
    """(d, n, up to 8 vectors of (Z/dZ)^(2n)), n <= 4, at d = 2^16, 3^40 or 2^64, entries p^e * u of every valuation e."""
    p, top = draw(st.sampled_from([(2, 16), (3, 40), (2, 64)]))
    d = p**top
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.builds(lambda e, u: p**e * u % d, st.integers(0, top), st.integers(0, d - 1))
    return d, n, draw(st.lists(st.tuples(*[entry] * (2 * n)), max_size=8))


class TestSymplecticSpace:
    @given(standard_vector_pairs())
    @settings(max_examples=150, deadline=None)
    def test_pairing_and_functional_match_dense_products(self, case):
        d, n, u, v = case
        space = SymplecticSpace(n, d)
        gram = standard_gram(n, d)
        dense = gram.transpose().mul_vector(u)
        assert space.functional(u) == dense
        assert space.pairing(u, v) == sum(x * y for x, y in zip(u, gram.mul_vector(v))) % d
        assert space.pairing(u, v) == sum(x * y for x, y in zip(dense, v)) % d
        lift_u, lift_v = from_module_vector(d, u), from_module_vector(d, v)
        assert space.pairing(u, v) == commutation_phase(lift_u, lift_v)

    @given(pairing_table_cases())
    @settings(max_examples=200, deadline=None)
    @example((6, 2, [], [(1, 0, 0, 1)]))
    @example((2**64, 1, [(0, 1)], []))
    @example((6, 2, [(0, 0, 0, 0), (-7, 13, 0, -1), (6, 0, -12, 18)], [(5, -1, 0, 25), (0, 0, 0, 0)]))
    def test_pairing_table_matches_pairing(self, case):
        d, n, us, vs = case
        space = SymplecticSpace(n, d)
        assert space.pairing_table(us, vs) == [[space.pairing(u, v) for v in vs] for u in us]

    def test_standard_gram_is_the_unit_vectors_table(self):
        rng = random.Random(71)
        seen = set()
        for _ in range(120):
            d, n = rng.choice([2, 3, 6, 12, 2**64]), rng.randint(0, 3)
            space = SymplecticSpace(n, d)
            units = ZdMatrix.identity(d, 2 * n).entries
            cols = [random_symplectic_matrix(rng, n, d).col(k) for k in range(2 * n)]
            if cols and rng.random() < 0.5:
                k = rng.randrange(2 * n)
                cols[k] = tuple((x + rng.randrange(d)) % d for x in cols[k])
            if rng.random() < 0.2:
                cols = cols[: rng.randint(0, 2 * n)]
            want = space.pairing_table(cols, cols) == space.pairing_table(units, units)
            assert space.has_standard_gram(cols) == want
            assert space.has_standard_gram(units)
            seen.add(want)
        assert seen == {True, False}

    def test_all_pairs_checks_call_no_pairing(self, monkeypatch):
        # the isotropy checks, the dual orthogonalisation and the lift's form
        # check each read one pairing_table instead of pairing every pair
        space = SymplecticSpace(3, 12)
        psi = random_symplectic_matrix(random.Random(3), 3, 12)
        counts = count_pairings(monkeypatch)
        es, fs = extend_isotropic_basis(space, [psi.col(0), psi.col(1)])
        classify_isotropic_block(SymplecticSpace(1, 12), Submodule(12, 2, [(2, 0), (0, 6)]))
        lift_symplectic(space, psi)
        structure_decomposition(space)
        assert counts["pairing"] == 0
        assert_symplectic_basis(space, es, fs)

    def test_holds_only_n_and_modulus(self):
        space = SymplecticSpace(3, 6)
        assert [f.name for f in dataclasses.fields(space)] == ["n", "modulus"]
        assert space.rank == 6

    def test_perp_never_calls_det(self, monkeypatch):
        calls = []
        real = ZdMatrix.det

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(ZdMatrix, "det", counting)
        standard = SymplecticSpace(3, 6)
        sub = Submodule(6, 6, [(1, 0, 0, 0, 0, 0)])
        perp(standard, sub)
        perp(standard, perp(standard, sub))
        assert calls == []


class TestPerp:
    def test_builds_no_column_transform(self, monkeypatch):
        space = SymplecticSpace(3, 6)
        sub = Submodule(6, 6, [(1, 0, 2, 0, 3, 0), (0, 2, 0, 0, 0, 3)])
        widths = record_replays(monkeypatch)
        comp = perp(space, sub)
        # one replay, as wide as the kernel columns it picks, not the 6 of v
        assert widths == [len(comp.generators)] == [4]

    def test_extremes(self):
        space = SymplecticSpace(2, 4)
        assert perp(space, Submodule.zero(4, 4)).cardinality == 4**4
        assert perp(space, Submodule.full(4, 4)).cardinality == 1

    def test_small_exhaustive(self):
        # d=4, n=1, N = <2z>: every element paired against all 16 vectors
        space = SymplecticSpace(1, 4)
        sub = Submodule(4, 2, [(2, 0)])
        result = set(perp(space, sub).enumerate_elements())
        expected = {
            v
            for v in itertools.product(range(4), repeat=2)
            if all(space.pairing(v, w) == 0 for w in sub.enumerate_elements())
        }
        assert result == expected
        assert len(result) == 16 // 2

    def test_cardinality_and_involution(self):
        rng = random.Random(10)
        for _ in range(120):
            d = rng.choice([2, 3, 4, 6, 8])
            n = rng.randint(1, 2)
            space = SymplecticSpace(n, d)
            sub = Submodule(
                d, 2 * n,
                [tuple(rng.randrange(d) for _ in range(2 * n)) for _ in range(rng.randint(0, 3))],
            )
            complement = perp(space, sub)
            assert complement.cardinality * sub.cardinality == d ** (2 * n)
            assert perp(space, complement) == sub


class TestStructureDecomposition:
    def test_standard_module(self):
        space = SymplecticSpace(2, 6)
        blocks = structure_decomposition(space)
        assert sorted(b.divisor for b in blocks) == [6, 6]

    def test_degenerate_carrier(self):
        space = SymplecticSpace(1, 4)
        with pytest.raises(Degenerate):
            structure_decomposition(space, Submodule(4, 2, [(2, 0), (0, 2)]))

    def test_quotient_s2_at_d8(self):
        space = SymplecticSpace(1, 8)
        blocks = structure_decomposition(
            space, Submodule(8, 2, [(2, 0), (0, 2)]), Submodule(8, 2, [(4, 0), (0, 4)])
        )
        assert [b.divisor for b in blocks] == [2]
        assert space.pairing(blocks[0].e, blocks[0].f) == 4

    def test_chain_form_absorbs_coprime_blocks(self):
        # a carrier isomorphic to S_2 + S_3 is also S_6; the canonical
        # output is the divisor chain form
        space = SymplecticSpace(2, 6)
        carrier = Submodule(6, 4, [(3, 0, 0, 0), (0, 0, 3, 0), (0, 2, 0, 0), (0, 0, 0, 2)])
        blocks = structure_decomposition(space, carrier)
        assert [b.divisor for b in blocks] == [6]

    def test_gram_exactness_and_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            d = rng.choice([2, 3, 4, 6, 8])
            n = rng.randint(1, 2)
            space = SymplecticSpace(n, d)
            modulo = Submodule(d, 2 * n, random_isotropic_vectors(rng, d, n, attempts=n))
            carrier = perp(space, modulo)
            blocks = structure_decomposition(space, carrier, modulo)
            for i, b1 in enumerate(blocks):
                assert space.pairing(b1.e, b1.f) == d // b1.divisor
                for j, b2 in enumerate(blocks):
                    if i != j:
                        assert space.pairing(b1.e, b2.e) == 0
                        assert space.pairing(b1.e, b2.f) == 0
                        assert space.pairing(b1.f, b2.f) == 0
            # re-present the carrier with shuffled redundant generators
            gens = list(carrier.generators)
            for _ in range(2):
                w = (0,) * (2 * n)
                for g in carrier.generators:
                    w = vec_add(w, vec_scale(rng.randrange(d), g, d), d)
                gens.append(w)
            rng.shuffle(gens)
            blocks2 = structure_decomposition(space, Submodule(d, 2 * n, gens), modulo)
            assert sorted(b.divisor for b in blocks) == sorted(b.divisor for b in blocks2)

    def test_gram_blocks_of_a_perp_are_the_checked_quotient(self):
        # for isotropic M, perp(M)/radical is perp(M)/M: the unchecked
        # elimination gives the blocks of the checked decomposition
        rng = random.Random(97)
        for _ in range(80):
            d = rng.choice([2, 4, 6, 8, 12])
            n = rng.randint(1, 3)
            space = SymplecticSpace(n, d)
            modulo = Submodule(d, 2 * n, random_isotropic_vectors(rng, d, n, attempts=n + 1))
            carrier = perp(space, modulo)
            assert gram_blocks(space, carrier.generators) == structure_decomposition(space, carrier, modulo)

    @given(prime_power_generators())
    @settings(max_examples=200, deadline=None)
    def test_one_pivot_search_per_block_at_a_prime_power(self, case):
        # the least-gcd pivot divides every Gram entry, so no round is dirty and
        # no bad row is added: one search per block and one that finds nothing
        d, n, gens = case
        searches = []

        def counting(*args):
            searches.append(args)
            return zmod._pivot(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symplectic_module, "_pivot", counting)
            blocks = gram_blocks(SymplecticSpace(n, d), gens)
        assert len(searches) <= len(blocks) + 1

    @settings(max_examples=80, deadline=None)
    @given(carrier_modulo_pairs())
    # S_6 + S_4 at d=12: the pivot 2 comes first, and the chain form is S_12 + S_2
    @example(carrier_modulo_case(12, 2, [(2, 0, 0, 0), (0, 0, 1, 0), (0, 3, 0, 0), (0, 0, 0, 1)]))
    # the pivot 3 at d=8 is a unit, scaled to 1
    @example(carrier_modulo_case(8, 1, [(1, 0), (0, 3)]))
    def test_matches_brute_force(self, case):
        space, gens, modulo_gens, carrier, radical = case
        d, m = space.modulus, space.rank
        modulo = brute_span(modulo_gens, d, m)
        try:
            blocks = structure_decomposition(space, Submodule(d, m, gens), Submodule(d, m, modulo_gens))
        except Degenerate:
            assert not radical <= modulo
            return
        assert radical <= modulo
        divs = [b.divisor for b in blocks]
        assert all(x % y == 0 for x, y in zip(divs, divs[1:]))
        size = 1
        for b in blocks:
            size *= b.divisor * b.divisor
        assert size == len(carrier) // len(modulo)
        for i, b1 in enumerate(blocks):
            assert space.pairing(b1.e, b1.f) == d // b1.divisor
            for v in (b1.e, b1.f):
                assert v in carrier
                assert min(k for k in range(1, d + 1) if vec_scale(k, v, d) in modulo) == b1.divisor
            for b2 in blocks[i + 1:]:
                for u in (b1.e, b1.f):
                    for v in (b2.e, b2.f):
                        assert space.pairing(u, v) == 0


class TestSymplecticBasis:
    def test_standard(self):
        space = SymplecticSpace(2, 5)
        assert_symplectic_basis(space, *symplectic_basis(space))

    def test_skew_carrier(self):
        space = SymplecticSpace(1, 5)
        es, fs = symplectic_basis(space, Submodule(5, 2, [(1, 1), (0, 1)]))
        assert_symplectic_basis(space, es, fs)

    def test_not_free(self):
        space = SymplecticSpace(1, 4)
        with pytest.raises(NotFreeSymplectic):
            symplectic_basis(space, Submodule(4, 2, [(2, 0), (0, 2)]))

    def test_helper_rejects_a_wrong_basis(self):
        # the helper's plain asserts must fire under python -O as well
        space = SymplecticSpace(1, 5)
        with pytest.raises(AssertionError):
            assert_symplectic_basis(space, [(1, 0)], [(2, 0)])


class TestExtendIsotropicBasis:
    def test_single_z(self):
        space = SymplecticSpace(2, 4)
        es, fs = extend_isotropic_basis(space, [(1, 0, 0, 0)])
        assert es[0] == (1, 0, 0, 0)
        assert_symplectic_basis(space, es, fs)

    def test_diagonal_vector(self):
        space = SymplecticSpace(1, 3)
        es, fs = extend_isotropic_basis(space, [(1, 1)])
        assert es[0] == (1, 1)
        assert space.pairing(es[0], fs[0]) == 1

    def test_not_isotropic(self):
        space = SymplecticSpace(2, 4)
        with pytest.raises(NotIsotropic):
            extend_isotropic_basis(space, [(1, 0, 0, 0), (0, 0, 1, 0)])

    def test_random_free_isotropic(self):
        rng = random.Random(12)
        for _ in range(40):
            d = rng.choice([2, 3, 4, 5, 6])
            n = rng.randint(1, 3)
            space = SymplecticSpace(n, d)
            k = rng.randint(1, n)
            vecs = [tuple(1 if i == j else 0 for i in range(2 * n)) for j in range(k)]
            for _ in range(5):
                v = tuple(rng.randrange(d) for _ in range(2 * n))
                vecs = [
                    tuple((u[i] + space.pairing(u, v) * v[i]) % d for i in range(2 * n))
                    for u in vecs
                ]
            es, fs = extend_isotropic_basis(space, vecs)
            assert list(es[:k]) == vecs
            assert_symplectic_basis(space, es, fs)


class TestLagrangianCanonicalForm:
    def test_free_lagrangian(self):
        space = SymplecticSpace(2, 6)
        lagr = Submodule(6, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (6, 6)
        assert form.reconstruct() == lagr
        assert_symplectic_basis(space, form.basis_e, form.basis_f)

    def test_half_lagrangian_d4(self):
        space = SymplecticSpace(1, 4)
        lagr = Submodule(4, 2, [(2, 0), (0, 2)])
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (2,)
        assert form.reconstruct() == lagr

    def test_cyclic_lagrangian_d6(self):
        # <2z, 3x> over Z_6 is free cyclic, so the canonical divisor is 6
        space = SymplecticSpace(1, 6)
        lagr = Submodule(6, 2, [(2, 0), (0, 3)])
        assert perp(space, lagr) == lagr
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (6,)
        assert form.reconstruct() == lagr

    def test_reduces_no_matrix_twice(self, monkeypatch):
        # each level reduces its module and span(e, f) for its perp, and reads
        # e and f from its module's Smith form; the top level reuses the
        # Lagrangian's own Smith form
        d, n = 6, 6
        space = SymplecticSpace(n, d)
        lagr = Submodule(d, 2 * n, [tuple(int(j == i) for j in range(2 * n)) for i in range(n)])
        calls = count_reductions(monkeypatch)
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (d,) * n
        assert len({mat.entries for mat in calls}) == len(calls)

    def test_rejects_non_lagrangian(self):
        space = SymplecticSpace(1, 6)
        with pytest.raises(NotLagrangian):
            lagrangian_canonical_form(space, Submodule(6, 2, [(2, 0)]))

    def test_random_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            d = rng.choice([2, 3, 4, 6, 8, 9])
            n = rng.randint(1, 2)
            space = SymplecticSpace(n, d)
            es, fs = symplectic_basis(space)
            gens = []
            for i in range(n):
                a = rng.choice([x for x in divisors(d) if (x * x) % d == 0])
                gens.append(vec_scale(a, es[i], d))
                gens.append(vec_scale(d // a, fs[i], d))
            lagr = Submodule(d, 2 * n, gens)
            assert perp(space, lagr) == lagr
            form = lagrangian_canonical_form(space, lagr)
            assert form.reconstruct() == lagr
            assert_symplectic_basis(space, form.basis_e, form.basis_f)
            chain = form.divisors
            for x, y in zip(chain, chain[1:]):
                assert y % x == 0
            assert d % chain[-1] == 0
            assert (chain[0] * chain[0]) % d == 0

    def test_random_frames(self):
        # Lagrangians <a_i e_i, (d / a_i) f_i> in the frame of a random symplectic
        # matrix, with the generators shuffled and one redundant combination
        rng = random.Random(29)
        for _ in range(80):
            d = rng.choice([4, 8, 9, 12, 36, 72])
            n = rng.randint(1, 4)
            space = SymplecticSpace(n, d)
            psi = random_symplectic_matrix(rng, n, d, steps=2 * n)
            gens = []
            for i in range(n):
                a = rng.choice([x for x in divisors(d) if (x * x) % d == 0])
                gens.append(vec_scale(a, psi.col(i), d))
                gens.append(vec_scale(d // a, psi.col(n + i), d))
            rng.shuffle(gens)
            coeffs = [rng.randrange(d) for _ in gens]
            gens.append(tuple(sum(c * g[k] for c, g in zip(coeffs, gens)) % d for k in range(2 * n)))
            lagr = Submodule(d, 2 * n, gens)
            form = lagrangian_canonical_form(space, lagr)
            assert form.reconstruct() == lagr
            assert_symplectic_basis(space, form.basis_e, form.basis_f)
            pairs = sorted(x for a in form.divisors for x in (a, d // a) if x > 1)
            assert tuple(pairs) == lagr.invariant_factors

    def test_each_level_pairs_its_block_to_one(self, monkeypatch):
        # a level splits off (e, f) read from its module's Smith form and appends
        # the block as (f, -e), so that pair reads pairing(e, f) in the level's space
        real = symplectic_module._lagrangian_blocks
        levels = []

        def recording(space, lsub):
            es, fs, divs = real(space, lsub)
            if space.n:
                levels.append((space, lsub, es[-1], fs[-1], divs[-1]))
            return es, fs, divs

        monkeypatch.setattr(symplectic_module, "_lagrangian_blocks", recording)
        rng = random.Random(61)
        squares = {d: [a for a in divisors(d) if (a * a) % d == 0] for d in (4, 12, 36, 72, 360)}
        squares[2**64] = [2**32, 2**40, 2**64]
        for _ in range(40):
            d = rng.choice(sorted(squares))
            n = rng.randint(1, 4)
            space = SymplecticSpace(n, d)
            psi = random_symplectic_matrix(rng, n, d, steps=2 * n)
            gens = []
            for i in range(n):
                a = rng.choice(squares[d])
                gens.append(vec_scale(a, psi.col(i), d))
                gens.append(vec_scale(d // a, psi.col(n + i), d))
            rng.shuffle(gens)
            levels.clear()
            lagrangian_canonical_form(space, Submodule(d, 2 * n, gens))
            assert [level[0].n for level in levels] == list(range(1, n + 1))
            for level_space, lsub, f, minus_e, a in levels:
                assert level_space.pairing(f, minus_e) == 1
                assert lsub.contains(vec_scale(d // a, minus_e, d))
                assert lsub.contains(vec_scale(a, f, d))


class TestClassifyIsotropicBlock:
    def test_partner_pairs_to_one_on_seeded_submodules(self):
        rng = random.Random(67)
        for _ in range(200):
            d = rng.choice([4, 6, 12, 360, 2**64])
            space = SymplecticSpace(1, d)
            gens = random_isotropic_vectors(rng, d, 1)
            gens += [vec_scale(rng.randrange(d), g, d) for g in gens]
            sub = Submodule(d, 2, gens)
            a, b, (e, f) = classify_isotropic_block(space, sub)
            assert space.pairing(e, f) == 1
            assert (a * b) % d == 0 and b % a == 0
            assert Submodule(d, 2, [vec_scale(a, e, d), vec_scale(b, f, d)]) == sub

    def test_zero(self):
        space = SymplecticSpace(1, 8)
        a, b, (e, f) = classify_isotropic_block(space, Submodule(8, 2, []))
        assert (a, b) == (8, 8)
        assert space.pairing(e, f) == 1

    def test_z_line(self):
        space = SymplecticSpace(1, 8)
        a, b, _ = classify_isotropic_block(space, Submodule(8, 2, [(1, 0)]))
        assert (a, b) == (1, 8)

    def test_x4_z4_image(self):
        space = SymplecticSpace(1, 8)
        a, b, (e, f) = classify_isotropic_block(space, Submodule(8, 2, [(4, 0), (0, 4)]))
        assert (a, b) == (4, 4)
        assert (a * b) % 8 == 0 and b % a == 0
        assert space.pairing(e, f) == 1

    def test_not_isotropic(self):
        space = SymplecticSpace(1, 8)
        with pytest.raises(NotIsotropic):
            classify_isotropic_block(space, Submodule(8, 2, [(1, 0), (0, 1)]))

    def test_large_modulus_needs_no_loop_up_to_d(self):
        d = 2**64
        space = SymplecticSpace(1, d)
        start = time.perf_counter()
        a, b, (e, f) = classify_isotropic_block(space, Submodule(d, 2, [(2**32, 0), (0, 2**32)]))
        assert time.perf_counter() - start < 1.0
        assert (a, b) == (2**32, 2**32)
        assert space.pairing(e, f) == 1
