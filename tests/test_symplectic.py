import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditstab.errors import Degenerate, NotFreeSymplectic, NotIsotropic, NotLagrangian
from quditstab.pauli import commutation_phase, from_module_vector
from quditstab.symplectic import (
    SymplecticSpace,
    classify_isotropic_block,
    extend_isotropic_basis,
    lagrangian_canonical_form,
    perp,
    structure_decomposition,
    symplectic_basis,
)
from quditstab.zmod import Submodule, ZdMatrix, divisors, vec_add, vec_scale
from tests.helpers import assert_symplectic_basis, random_isotropic_vectors, standard_gram


@st.composite
def standard_vector_pairs(draw):
    """Two vectors of the standard module at composite d, up to 2^64."""
    d = draw(st.sampled_from([4, 6, 12, 360, 2**64]))
    n = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(st.integers(min_value=0, max_value=d - 1), min_size=2 * n, max_size=2 * n)
    return d, n, draw(vector), draw(vector)


class TestSymplecticSpace:
    @given(standard_vector_pairs())
    @settings(max_examples=150, deadline=None)
    def test_pairing_and_functional_match_dense_products(self, case):
        d, n, u, v = case
        space = SymplecticSpace.standard(n, d)
        gram = standard_gram(n, d)
        dense = gram.transpose().mul_vector(u)
        assert space.functional(u) == dense
        assert space.pairing(u, v) == sum(x * y for x, y in zip(u, gram.mul_vector(v))) % d
        assert space.pairing(u, v) == sum(x * y for x, y in zip(dense, v)) % d
        lift_u, lift_v = from_module_vector(d, u), from_module_vector(d, v)
        assert space.pairing(u, v) == commutation_phase(lift_u, lift_v)

    def test_holds_only_n_and_modulus(self):
        space = SymplecticSpace.standard(3, 6)
        assert [f.name for f in dataclasses.fields(space)] == ["n", "modulus"]
        assert space.rank == 6

    def test_perp_never_calls_det(self, monkeypatch):
        calls = []
        real = ZdMatrix.det

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(ZdMatrix, "det", counting)
        standard = SymplecticSpace.standard(3, 6)
        sub = Submodule(6, 6, [(1, 0, 0, 0, 0, 0)])
        perp(standard, sub)
        perp(standard, perp(standard, sub))
        assert calls == []


class TestPerp:
    def test_extremes(self):
        space = SymplecticSpace.standard(2, 4)
        assert perp(space, Submodule.zero(4, 4)).cardinality == 4**4
        assert perp(space, Submodule.full(4, 4)).cardinality == 1

    def test_small_exhaustive(self):
        # d=4, n=1, N = <2z>: every element paired against all 16 vectors
        space = SymplecticSpace.standard(1, 4)
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
            space = SymplecticSpace.standard(n, d)
            sub = Submodule(
                d, 2 * n,
                [tuple(rng.randrange(d) for _ in range(2 * n)) for _ in range(rng.randint(0, 3))],
            )
            complement = perp(space, sub)
            assert complement.cardinality * sub.cardinality == d ** (2 * n)
            assert perp(space, complement) == sub


class TestStructureDecomposition:
    def test_standard_module(self):
        space = SymplecticSpace.standard(2, 6)
        blocks = structure_decomposition(space)
        assert sorted(b.divisor for b in blocks) == [6, 6]

    def test_degenerate_carrier(self):
        space = SymplecticSpace.standard(1, 4)
        with pytest.raises(Degenerate):
            structure_decomposition(space, Submodule(4, 2, [(2, 0), (0, 2)]))

    def test_quotient_s2_at_d8(self):
        space = SymplecticSpace.standard(1, 8)
        blocks = structure_decomposition(
            space, Submodule(8, 2, [(2, 0), (0, 2)]), Submodule(8, 2, [(4, 0), (0, 4)])
        )
        assert [b.divisor for b in blocks] == [2]
        assert space.pairing(blocks[0].e, blocks[0].f) == 4

    def test_chain_form_absorbs_coprime_blocks(self):
        # a carrier isomorphic to S_2 + S_3 is also S_6; the canonical
        # output is the divisor chain form
        space = SymplecticSpace.standard(2, 6)
        carrier = Submodule(6, 4, [(3, 0, 0, 0), (0, 0, 3, 0), (0, 2, 0, 0), (0, 0, 0, 2)])
        blocks = structure_decomposition(space, carrier)
        assert [b.divisor for b in blocks] == [6]

    def test_gram_exactness_and_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            d = rng.choice([2, 3, 4, 6, 8])
            n = rng.randint(1, 2)
            space = SymplecticSpace.standard(n, d)
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


class TestSymplecticBasis:
    def test_standard(self):
        space = SymplecticSpace.standard(2, 5)
        assert_symplectic_basis(space, *symplectic_basis(space))

    def test_skew_carrier(self):
        space = SymplecticSpace.standard(1, 5)
        es, fs = symplectic_basis(space, Submodule(5, 2, [(1, 1), (0, 1)]))
        assert_symplectic_basis(space, es, fs)

    def test_not_free(self):
        space = SymplecticSpace.standard(1, 4)
        with pytest.raises(NotFreeSymplectic):
            symplectic_basis(space, Submodule(4, 2, [(2, 0), (0, 2)]))


class TestExtendIsotropicBasis:
    def test_single_z(self):
        space = SymplecticSpace.standard(2, 4)
        es, fs = extend_isotropic_basis(space, [(1, 0, 0, 0)])
        assert es[0] == (1, 0, 0, 0)
        assert_symplectic_basis(space, es, fs)

    def test_diagonal_vector(self):
        space = SymplecticSpace.standard(1, 3)
        es, fs = extend_isotropic_basis(space, [(1, 1)])
        assert es[0] == (1, 1)
        assert space.pairing(es[0], fs[0]) == 1

    def test_not_isotropic(self):
        space = SymplecticSpace.standard(2, 4)
        with pytest.raises(NotIsotropic):
            extend_isotropic_basis(space, [(1, 0, 0, 0), (0, 0, 1, 0)])

    def test_random_free_isotropic(self):
        rng = random.Random(12)
        for _ in range(40):
            d = rng.choice([2, 3, 4, 5, 6])
            n = rng.randint(1, 3)
            space = SymplecticSpace.standard(n, d)
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
        space = SymplecticSpace.standard(2, 6)
        lagr = Submodule(6, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (6, 6)
        assert form.reconstruct() == lagr
        assert_symplectic_basis(space, form.basis_e, form.basis_f)

    def test_half_lagrangian_d4(self):
        space = SymplecticSpace.standard(1, 4)
        lagr = Submodule(4, 2, [(2, 0), (0, 2)])
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (2,)
        assert form.reconstruct() == lagr

    def test_cyclic_lagrangian_d6(self):
        # <2z, 3x> over Z_6 is free cyclic, so the canonical divisor is 6
        space = SymplecticSpace.standard(1, 6)
        lagr = Submodule(6, 2, [(2, 0), (0, 3)])
        assert perp(space, lagr) == lagr
        form = lagrangian_canonical_form(space, lagr)
        assert form.divisors == (6,)
        assert form.reconstruct() == lagr

    def test_rejects_non_lagrangian(self):
        space = SymplecticSpace.standard(1, 6)
        with pytest.raises(NotLagrangian):
            lagrangian_canonical_form(space, Submodule(6, 2, [(2, 0)]))

    def test_random_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            d = rng.choice([2, 3, 4, 6, 8, 9])
            n = rng.randint(1, 2)
            space = SymplecticSpace.standard(n, d)
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


class TestClassifyIsotropicBlock:
    def test_zero(self):
        space = SymplecticSpace.standard(1, 8)
        a, b, (e, f) = classify_isotropic_block(space, Submodule(8, 2, []))
        assert (a, b) == (8, 8)
        assert space.pairing(e, f) == 1

    def test_z_line(self):
        space = SymplecticSpace.standard(1, 8)
        a, b, _ = classify_isotropic_block(space, Submodule(8, 2, [(1, 0)]))
        assert (a, b) == (1, 8)

    def test_x4_z4_image(self):
        space = SymplecticSpace.standard(1, 8)
        a, b, (e, f) = classify_isotropic_block(space, Submodule(8, 2, [(4, 0), (0, 4)]))
        assert (a, b) == (4, 4)
        assert (a * b) % 8 == 0 and b % a == 0
        assert space.pairing(e, f) == 1

    def test_not_isotropic(self):
        space = SymplecticSpace.standard(1, 8)
        with pytest.raises(NotIsotropic):
            classify_isotropic_block(space, Submodule(8, 2, [(1, 0), (0, 1)]))

    def test_large_modulus_needs_no_loop_up_to_d(self):
        d = 2**64
        space = SymplecticSpace.standard(1, d)
        start = time.perf_counter()
        a, b, (e, f) = classify_isotropic_block(space, Submodule(d, 2, [(2**32, 0), (0, 2**32)]))
        assert time.perf_counter() - start < 1.0
        assert (a, b) == (2**32, 2**32)
        assert space.pairing(e, f) == 1
