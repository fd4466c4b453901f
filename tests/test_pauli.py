import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditstab.errors import DimensionMismatch
from quditstab.pauli import (
    PauliElement,
    commutation_phase,
    conjugate,
    inverse,
    is_identity,
    is_scalar,
    module_vector,
    multiply,
    order,
    order_matched_lift,
    phase_modulus,
    power,
)
from quditstab.zmod import vec_add, vector_order
from tests.helpers import matrices_equal, pauli_matrix, random_pauli


@st.composite
def pauli_elements(draw, max_d=9, max_n=3):
    d = draw(st.integers(min_value=2, max_value=max_d))
    n = draw(st.integers(min_value=1, max_value=max_n))
    phase = draw(st.integers(min_value=0, max_value=phase_modulus(d) - 1))
    a = tuple(draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(n))
    b = tuple(draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(n))
    return PauliElement(d, n, phase, a, b)


def pair_strategy():
    return pauli_elements().flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.builds(
                PauliElement,
                st.just(p.d),
                st.just(p.n),
                st.integers(min_value=0, max_value=phase_modulus(p.d) - 1),
                st.tuples(*(st.integers(min_value=0, max_value=p.d - 1) for _ in range(p.n))),
                st.tuples(*(st.integers(min_value=0, max_value=p.d - 1) for _ in range(p.n))),
            ),
        )
    )


class TestMultiply:
    def test_identity_neutral(self):
        p = PauliElement(6, 2, 5, (1, 2), (3, 4))
        assert multiply(PauliElement.identity(6, 2), p) == p

    def test_zx_reorder_d3(self):
        # Z X = zeta^2 X Z for one qutrit
        out = multiply(PauliElement.z_op(3, 1, 0), PauliElement.x_op(3, 1, 0))
        assert out == PauliElement(3, 1, 2, (1,), (1,))

    def test_xz_squared_d2(self):
        xz = PauliElement(2, 1, 0, (1,), (1,))
        out = multiply(xz, xz)
        assert out == PauliElement.scalar(2, 1, 2)  # -I
        assert matrices_equal(out, pauli_matrix(xz) @ pauli_matrix(xz))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply(PauliElement.identity(2, 1), PauliElement.identity(3, 1))

    def test_matrix_oracle_random(self):
        rng = random.Random(20)
        for _ in range(150):
            d = rng.choice([2, 3, 4, 5, 6])
            n = rng.randint(1, 2)
            p, q = random_pauli(rng, d, n), random_pauli(rng, d, n)
            assert matrices_equal(multiply(p, q), pauli_matrix(p) @ pauli_matrix(q))
            assert matrices_equal(inverse(p), np.linalg.inv(pauli_matrix(p)))

    @given(pair_strategy())
    @settings(max_examples=80, deadline=None)
    def test_commutation_law(self, pq):
        p, q = pq
        c = commutation_phase(p, q)
        lhs = multiply(p, q)
        rhs = multiply(PauliElement.scalar(p.d, p.n, 2 * c), multiply(q, p))
        assert lhs == rhs

    def test_associativity_sampled(self):
        rng = random.Random(21)
        for _ in range(1000):
            d = rng.choice(range(2, 10))
            n = rng.randint(1, 3)
            p, q, r = (random_pauli(rng, d, n) for _ in range(3))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


class TestPower:
    def test_zeroth(self):
        assert power(PauliElement(5, 2, 3, (1, 2), (3, 4)), 0) == PauliElement.identity(5, 2)

    def test_closed_form_examples(self):
        xz = PauliElement(2, 1, 0, (1,), (1,))
        assert power(xz, 2) == PauliElement.scalar(2, 1, 2)
        x2z2 = PauliElement(4, 1, 0, (2,), (2,))
        assert power(x2z2, 2) == PauliElement.identity(4, 1)
        assert matrices_equal(power(x2z2, 2), pauli_matrix(x2z2) @ pauli_matrix(x2z2))

    @given(pauli_elements(max_d=7, max_n=2), st.integers(min_value=0, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_iterated_multiply(self, p, m):
        acc = PauliElement.identity(p.d, p.n)
        for _ in range(m):
            acc = multiply(acc, p)
        assert power(p, m) == acc

    def test_negative_exponent(self):
        rng = random.Random(22)
        for _ in range(50):
            p = random_pauli(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 2))
            assert power(p, -1) == inverse(p)
            assert multiply(power(p, -3), power(p, 3)) == PauliElement.identity(p.d, p.n)


class TestOrder:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (PauliElement.identity(5, 1), 1),
            (PauliElement(2, 1, 0, (1,), (1,)), 4),
            (PauliElement(2, 1, 1, (1,), (1,)), 2),
            (PauliElement.x_op(8, 1, 0, 4), 2),
        ],
    )
    def test_examples(self, p, expected):
        assert order(p) == expected

    def test_definition(self):
        rng = random.Random(23)
        for _ in range(60):
            p = random_pauli(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 2))
            m = order(p)
            assert is_identity(power(p, m))
            for k in range(1, m):
                assert not is_identity(power(p, k))


class TestCommutationPhase:
    def test_standard_pairing(self):
        assert commutation_phase(PauliElement.z_op(5, 2, 0), PauliElement.x_op(5, 2, 0)) == 1
        assert commutation_phase(PauliElement.z_op(5, 2, 0), PauliElement.x_op(5, 2, 1)) == 0

    def test_alternating(self):
        p = PauliElement(6, 2, 1, (1, 5), (2, 3))
        assert commutation_phase(p, p) == 0

    def test_x4_z4_commute(self):
        assert commutation_phase(PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4)) == 0


class TestModuleVector:
    def test_scalars_map_to_zero(self):
        assert module_vector(PauliElement.scalar(3, 2, 2)) == (0, 0, 0, 0)

    def test_layout(self):
        p = multiply(PauliElement.x_op(4, 2, 0), PauliElement.z_op(4, 2, 1))
        assert module_vector(p) == (0, 1, 1, 0)  # z-part then x-part

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, pq):
        p, q = pq
        assert module_vector(multiply(p, q)) == vec_add(module_vector(p), module_vector(q), p.d)

    def test_kernel_is_scalars_and_surjective(self):
        from quditstab.pauli import from_module_vector

        for d in (2, 3, 4):
            for v in itertools.product(range(d), repeat=2):
                p = from_module_vector(d, v)
                assert module_vector(p) == v
                assert is_scalar(p) == (not any(v))


class TestOrderMatchedLift:
    def test_plain_z(self):
        assert order_matched_lift(2, (1, 0)) == PauliElement.z_op(2, 1, 0)

    def test_qubit_xz_needs_phase(self):
        lift = order_matched_lift(2, (1, 1))
        assert lift == PauliElement(2, 1, 1, (1,), (1,))
        assert order(lift) == 2

    def test_exhaustive_small(self):
        for d in range(2, 7):
            for v in itertools.product(range(d), repeat=2):
                lift = order_matched_lift(d, v)
                assert module_vector(lift) == v
                assert order(lift) == vector_order(v, d)


class TestScalars:
    def test_examples(self):
        assert is_scalar(PauliElement.scalar(4, 1, 3))
        assert not is_scalar(PauliElement.x_op(4, 1, 0))
        assert is_scalar(power(PauliElement(2, 1, 0, (1,), (1,)), 2))


class TestSerialization:
    @pytest.mark.parametrize(
        "p",
        [
            PauliElement(6, 2, 7, (1, 5), (0, 3)),
            PauliElement.identity(2, 1),
            PauliElement.scalar(3, 0, 2),
            PauliElement(8, 1, 15, (7,), (4,)),
        ],
    )
    def test_round_trips(self, p):
        assert PauliElement.from_text(p.d, p.to_text()) == p
        assert PauliElement.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize(
        "field, value",
        [("d", 6.0), ("d", True), ("n", 2.5), ("phase", 7.0), ("a", [1, 5.0]), ("b", [0, False])],
    )
    def test_rejects_float_and_bool(self, field, value):
        obj = {**PauliElement(6, 2, 7, (1, 5), (0, 3)).to_json_dict(), field: value}
        with pytest.raises(TypeError, match="must be an integer"):
            PauliElement.from_json_dict(obj)

    def test_text_shape(self):
        p = PauliElement(6, 2, 7, (1, 5), (0, 3))
        assert p.to_text() == "z^7 * X1^1 Z1^0 * X2^5 Z2^3"

    def test_bool_exponents_are_stored_as_ints(self):
        # reduction mod d turns a bool into an int, so the JSON holds 1 and 0, never true/false
        p = PauliElement(2, 2, True, (True, 0), (False, 1))
        assert [type(x) for x in (p.phase, *p.a, *p.b)] == [int] * 5
        assert p.to_json_dict() == {"d": 2, "n": 2, "phase": 1, "a": [1, 0], "b": [0, 1]}
        assert json.dumps(p.to_json_dict()) == '{"d": 2, "n": 2, "phase": 1, "a": [1, 0], "b": [0, 1]}'


class TestConjugate:
    def test_x_kills_xi_on_z(self):
        # X (xi Z) X^-1 = Z for one qutrit
        xi_z = PauliElement(3, 1, 2, (0,), (1,))
        out = conjugate(PauliElement.x_op(3, 1, 0), xi_z)
        assert out == PauliElement.z_op(3, 1, 0)
