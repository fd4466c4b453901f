import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditstab import heisenberg
from quditstab.errors import Degenerate, InternalInvariant, NotSymplectic
from quditstab.heisenberg import (
    crt_canonical_chain,
    heisenberg_structure,
    lift_symplectic,
    verify_presentation,
)
from quditstab.pauli import (
    PauliElement,
    module_vector,
    multiply,
    phase_modulus,
    power,
)
from quditstab.stabilizer import analyze, validate
from quditstab.symplectic import SymplecticSpace
from quditstab.zmod import Submodule, ZdMatrix
from tests.helpers import (
    apply_reference,
    chain_reference,
    random_pauli,
    random_symplectic_matrix,
    standard_gram,
)

# primes whose products give moduli up to 2^64 with a known factorisation
PRIMES = (2, 3, 5, 7, 11, 13, 65537, 998244353, 1000000007, 4294967291)


@st.composite
def divisor_lists(draw):
    """Up to six divisors of a modulus d <= 2^64 built from PRIMES."""
    d, exponents = 1, {}
    for p in draw(st.lists(st.sampled_from(PRIMES), max_size=12)):
        if d * p <= 2**64:
            d *= p
            exponents[p] = exponents.get(p, 0) + 1
    size = draw(st.integers(min_value=0, max_value=6))
    out = []
    for _ in range(size):
        dv = 1
        for p, e in exponents.items():
            dv *= p ** draw(st.integers(min_value=0, max_value=e))
        out.append(dv)
    return out


def quasi_orders(module: Submodule) -> tuple:
    return tuple(o for _, o in module.quasi_basis())


class TestQuasiBasis:
    def test_free_module(self):
        assert quasi_orders(Submodule(5, 2, [(1, 0), (0, 1)])) == (5, 5)

    def test_cyclic(self):
        assert quasi_orders(Submodule(6, 2, [(2, 0), (0, 3)])) == (6,)

    def test_zero(self):
        assert quasi_orders(Submodule(6, 2, [])) == ()


class TestCrtChain:
    @pytest.mark.parametrize(
        "divisors,expected",
        [
            ([2, 3], (6,)),
            ([2, 4, 3], (2, 12)),
            ([], ()),
            ([6, 6], (6, 6)),
            ([2, 2, 3], (2, 6)),
        ],
    )
    def test_examples(self, divisors, expected):
        assert crt_canonical_chain(divisors) == expected

    def test_chain_and_prime_powers(self):
        rng = random.Random(30)
        for _ in range(60):
            divisors = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(0, 4))]
            chain = crt_canonical_chain(divisors)
            for x, y in zip(chain, chain[1:]):
                assert y % x == 0
            prod_in = 1
            for x in divisors:
                prod_in *= x
            prod_out = 1
            for x in chain:
                prod_out *= x
            assert prod_in == prod_out

    @given(divisor_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_prime_power_regrouping(self, divisors):
        assert crt_canonical_chain(divisors) == chain_reference(divisors, PRIMES)

    def test_semiprime_modulus_is_not_factored(self):
        d = 1000000007 * 998244353
        group = validate(d, 2, [PauliElement.z_op(d, 2, 0)])
        start = time.perf_counter()
        report = analyze(group)
        assert time.perf_counter() - start < 0.1
        assert report.quotient_divisors == report.canonical_chain == (d,)


class TestHeisenbergStructure:
    def test_free_module_is_pauli_group(self):
        structure = heisenberg_structure(SymplecticSpace(2, 6))
        assert structure.block_divisors == (6, 6)
        assert structure.canonical_chain == (6, 6)
        assert structure.group_order == phase_modulus(6) * (6 * 6) ** 2
        assert verify_presentation(structure.lifts, structure.quasi_orders, structure.form_values)

    def test_s2_inside_d8(self):
        # the image of <X^4, Z^4>: quotient <2z,2x>/<4z,4x> is S_2, so the
        # extension is the qubit Pauli group with a 16th root adjoined
        space = SymplecticSpace(1, 8)
        structure = heisenberg_structure(
            space, Submodule(8, 2, [(2, 0), (0, 2)]), Submodule(8, 2, [(4, 0), (0, 4)])
        )
        assert structure.block_divisors == (2,)
        assert structure.group_order == 16 * 4

    def test_crt_regrouping_at_d6(self):
        space = SymplecticSpace(2, 6)
        carrier = Submodule(6, 4, [(3, 0, 0, 0), (0, 0, 3, 0), (0, 2, 0, 0), (0, 0, 0, 2)])
        structure = heisenberg_structure(space, carrier)
        assert structure.canonical_chain == (6,)
        # dbar * 4 * 9 on both sides of the zeta-product identity
        assert structure.group_order == phase_modulus(6) * 4 * 9

    def test_json_schema(self):
        structure = heisenberg_structure(SymplecticSpace(1, 6))
        obj = structure.to_json_dict()
        assert obj["block_divisors"] == [6]
        assert obj["canonical_chain"] == [6]
        assert obj["order"] == str(phase_modulus(6) * 36)
        assert isinstance(obj["order"], str)
        assert len(obj["lifts"]) == 2
        assert all(set(l) == {"d", "n", "phase", "a", "b"} for l in obj["lifts"])

    def test_order_matches_module_cardinality(self):
        rng = random.Random(31)
        for _ in range(40):
            d = rng.choice([2, 3, 4, 6, 8])
            n = rng.randint(1, 2)
            space = SymplecticSpace(n, d)
            vecs = []
            for _ in range(rng.randint(0, n)):
                v = tuple(rng.randrange(d) for _ in range(2 * n))
                if all(space.pairing(v, w) == 0 for w in vecs):
                    vecs.append(v)
            modulo = Submodule(d, 2 * n, vecs)
            carrier = __import__("quditstab.symplectic", fromlist=["perp"]).perp(space, modulo)
            structure = heisenberg_structure(space, carrier, modulo)
            sq = 1
            for dv in structure.block_divisors:
                sq *= dv * dv
            assert sq == carrier.cardinality // modulo.cardinality
            assert structure.group_order == phase_modulus(d) * sq

    def test_degenerate_carrier(self):
        # the form vanishes on <2z, 2x> at d=4, so the quotient by zero is degenerate
        with pytest.raises(Degenerate):
            heisenberg_structure(SymplecticSpace(1, 4), Submodule(4, 2, [(2, 0), (0, 2)]))


class TestVerifyPresentation:
    def test_standard_generators(self):
        for d, n in [(2, 1), (3, 2), (4, 2), (6, 1)]:
            gens = tuple(PauliElement.z_op(d, n, k) for k in range(n)) + tuple(
                PauliElement.x_op(d, n, k) for k in range(n)
            )
            assert verify_presentation(gens, (d,) * (2 * n), standard_gram(n, d).entries)

    def test_order_violation(self):
        # d=2: replacing Z by zeta Z bumps the order to 4
        gens = (PauliElement(2, 1, 1, (0,), (1,)), PauliElement.x_op(2, 1, 0))
        assert not verify_presentation(gens, (2, 2), standard_gram(1, 2).entries)

    def test_quotient_lifts_modulo_group(self):
        # lifts of the S_2 quasi-basis of the d=8 example hold modulo H
        z2 = PauliElement.z_op(8, 1, 0, 2)
        x2 = PauliElement.x_op(8, 1, 0, 2)
        form_values = [[0, 4], [4, 0]]
        assert not verify_presentation((z2, x2), (2, 2), form_values)

        from quditstab.stabilizer import membership, validate

        group = validate(8, 1, [PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4)])
        assert verify_presentation(
            (z2, x2), (2, 2), form_values, trivial=lambda p: membership(group, p)
        )


class TestLiftSymplectic:
    def test_identity(self):
        space = SymplecticSpace(2, 5)
        aut = lift_symplectic(space, ZdMatrix.identity(5, 4))
        assert aut.z_images == tuple(PauliElement.z_op(5, 2, k) for k in range(2))
        assert aut.x_images == tuple(PauliElement.x_op(5, 2, k) for k in range(2))

    def test_qubit_shear_needs_zeta(self):
        # z -> z+x needs the order-2 lift zeta X Z (cf. the failed +-ZX lift)
        space = SymplecticSpace(1, 2)
        psi = ZdMatrix.from_rows(2, [[1, 0], [1, 1]])
        aut = lift_symplectic(space, psi)
        assert aut.z_images[0] == PauliElement(2, 1, 1, (1,), (1,))
        assert aut.x_images[0] == PauliElement.x_op(2, 1, 0)
        assert aut.induced_matrix() == psi

    def test_qutrit_rotation(self):
        space = SymplecticSpace(1, 3)
        psi = ZdMatrix.from_rows(3, [[0, -1], [1, 0]])  # z -> x, x -> -z
        aut = lift_symplectic(space, psi)
        assert module_vector(aut.z_images[0]) == (0, 1)
        assert module_vector(aut.x_images[0]) == (2, 0)
        assert aut.induced_matrix() == psi

    def test_rejects_non_symplectic(self):
        space = SymplecticSpace(1, 3)
        with pytest.raises(NotSymplectic):
            lift_symplectic(space, ZdMatrix.from_rows(3, [[1, 0], [0, 2]]))

    def test_composition_induces_product(self):
        rng = random.Random(32)
        for _ in range(20):
            d = rng.choice([2, 3, 4, 6])
            n = rng.randint(1, 2)
            space = SymplecticSpace(n, d)
            m1 = random_symplectic_matrix(rng, n, d)
            m2 = random_symplectic_matrix(rng, n, d)
            a1 = lift_symplectic(space, m1)
            a2 = lift_symplectic(space, m2)
            assert a1.compose(a2).induced_matrix() == m1 @ m2
            for _ in range(4):
                p, q = random_pauli(rng, d, n), random_pauli(rng, d, n)
                assert a1.apply(multiply(p, q)) == multiply(a1.apply(p), a1.apply(q))
            # the lift fixes zeta
            assert a1.apply(PauliElement.scalar(d, n, 1)) == PauliElement.scalar(d, n, 1)

    @given(st.sampled_from([2, 3, 4, 6, 12, 2**64]), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_apply_is_the_multiply_fold(self, d, n, rng):
        aut = lift_symplectic(SymplecticSpace(n, d), random_symplectic_matrix(rng, n, d))
        for _ in range(4):
            p = random_pauli(rng, d, n)
            assert aut.apply(p) == apply_reference(aut, p)

    def test_order_relation_is_checked(self, monkeypatch):
        # zeta Z at d=2 squares to -1: the image pairs correctly but has order 4
        real = heisenberg.order_matched_lift

        def zeta_times(d, v):
            return multiply(PauliElement.scalar(d, len(v) // 2, 1), real(d, v))

        monkeypatch.setattr(heisenberg, "order_matched_lift", zeta_times)
        psi = random_symplectic_matrix(random.Random(5), 2, 2)
        with pytest.raises(InternalInvariant) as info:
            lift_symplectic(SymplecticSpace(2, 2), psi)
        assert (info.value.stage, info.value.detail) == (
            "heisenberg.lift_symplectic", "lifted images violate the presentation")

