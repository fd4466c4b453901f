import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditstab import stabilizer, zmod
from quditstab.errors import ContainsScalar, DimensionMismatch, InternalInvariant, NotAbelian, NotFree
from quditstab.kitaev import build_model, torus_grid_graph
from quditstab.pauli import (
    PauliElement,
    commutation_phase,
    multiply,
    order,
    order_matched_lift,
    phase_modulus,
    power,
)
from quditstab.stabilizer import (
    CharacterMap,
    StabilizerGroup,
    StabilizerReport,
    analyze,
    canonical_conjugation,
    character_action,
    characters,
    css_split,
    free_symplectic_envelope,
    membership,
    normalizer_membership,
    validate,
    validate_character,
)
from quditstab.symplectic import SymplecticSpace, perp
from quditstab.zmod import Submodule, ZdMatrix, vec_scale
from tests.helpers import (
    block_group,
    brute_span,
    characters_reference,
    count_multiplies,
    count_pairings,
    count_reductions,
    random_pauli,
    random_stabilizer_group,
    record_replays,
    validate_reference,
    word_reference,
)


def x4z4_group():
    return validate(8, 1, [PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4)])


class TestValidate:
    def test_z_pair(self):
        group = validate(5, 2, [PauliElement.z_op(5, 2, 0), PauliElement.z_op(5, 2, 1)])
        assert group.cardinality == 25

    def test_not_abelian(self):
        with pytest.raises(NotAbelian) as info:
            validate(2, 1, [PauliElement.z_op(2, 1, 0), PauliElement.x_op(2, 1, 0)])
        assert info.value.pair == (0, 1)

    def test_scalar_from_relation(self):
        xz = PauliElement(2, 1, 0, (1,), (1,))
        with pytest.raises(ContainsScalar):
            validate(2, 1, [xz, PauliElement(2, 1, 2, (1,), (1,))])

    def test_scalar_from_power(self):
        with pytest.raises(ContainsScalar):
            validate(2, 1, [PauliElement(2, 1, 0, (1,), (1,))])  # (XZ)^2 = -I

    def test_empty_group(self):
        group = validate(4, 2, [])
        assert group.cardinality == 1

    def test_d_below_2_is_rejected(self):
        with pytest.raises(ValueError, match="d = 1: need d >= 2"):
            validate(1, 1, [])

    def test_not_abelian_names_first_pair_in_row_major_order(self):
        # Z_2 and X_2 fail too, but (0, 3) comes first
        z1, z2 = PauliElement.z_op(6, 2, 0), PauliElement.z_op(6, 2, 1)
        x1, x2 = PauliElement.x_op(6, 2, 0), PauliElement.x_op(6, 2, 1)
        with pytest.raises(NotAbelian) as info:
            validate(6, 2, [z1, z2, x2, x1])
        assert (info.value.pair, info.value.value) == ((0, 3), 1)

    def test_matches_symbolic_reference(self):
        # the closed-form power check and words against power, multiply and
        # commutation_phase: same group, or same error, witness, phase and message
        rng = random.Random(1501)
        seen = Counter()
        for d, n, gens in validate_cases(rng, 480):
            got = validate_outcome(validate, d, n, gens)
            assert got == validate_outcome(validate_reference, d, n, gens)
            # relation witnesses are reduced mod d; the power check's witness holds d
            seen["power" if got[0] == "ContainsScalar" and d in got[1] else got[0]] += 1
        assert min(seen[k] for k in ("ok", "NotAbelian", "ContainsScalar", "power")) >= 20, seen

    @pytest.mark.parametrize("seed", range(40))
    def test_not_abelian_witness_matches_pairwise_scan(self, seed):
        rng = random.Random(seed)
        d, n = rng.choice([2, 6, 12, 360, 2**64]), rng.randint(1, 3)

        def sparse():
            return tuple(rng.choice([0, 0, 1, rng.randrange(d)]) for _ in range(n))

        gens = [PauliElement(d, n, 0, sparse(), sparse()) for _ in range(rng.randint(2, 5))]
        phases = ((pair, commutation_phase(gens[pair[0]], gens[pair[1]]))
                  for pair in itertools.combinations(range(len(gens)), 2))
        expected = next(((pair, c) for pair, c in phases if c), None)
        try:
            validate(d, n, gens)
            got = None
        except NotAbelian as exc:
            got = (exc.pair, exc.value)
        except ContainsScalar:
            got = None
        assert got == expected


def validate_cases(rng: random.Random, count: int):
    """(d, n, generators) lists for validate: valid groups, the same with a scalar
    shift on one generator or an extra scalar-shifted word, and random Paulis,
    with identity and pure-scalar generators mixed in."""
    for k in range(count):
        d = rng.choice([2, 3, 4, 6, 8, 12, 360, 2**64])
        n = rng.randint(1, 3)
        db = phase_modulus(d)
        kind = k % 4
        if kind == 3:
            gens = [random_pauli(rng, d, n) for _ in range(rng.randint(1, 4))]
        else:
            gens = list(random_stabilizer_group(rng, d, n).generators)
            if kind == 1 and gens:
                j = rng.randrange(len(gens))
                gens[j] = multiply(PauliElement.scalar(d, n, rng.randrange(1, db)), gens[j])
            elif kind == 2:
                extra = PauliElement.scalar(d, n, rng.randrange(db))
                for g in gens:
                    extra = multiply(extra, power(g, rng.randrange(-d, 2 * db)))
                gens.append(extra)
        if rng.random() < 0.2:
            extra = rng.choice([PauliElement.identity(d, n), PauliElement.scalar(d, n, rng.randrange(db))])
            gens.insert(rng.randrange(len(gens) + 1), extra)
        yield d, n, gens


def validate_outcome(check, d: int, n: int, gens) -> tuple:
    """The group's generators and cardinality, or the error's type, fields and message."""
    try:
        group = check(d, n, gens)
    except NotAbelian as exc:
        return "NotAbelian", exc.pair, exc.value, str(exc)
    except ContainsScalar as exc:
        return "ContainsScalar", exc.witness, exc.phase, str(exc)
    return "ok", group.generators, group.cardinality


def relation_kernel_cases():
    """Groups with at most 4 generators at d <= 8, some with identity generators."""
    rng = random.Random(43)
    yield validate(6, 1, [PauliElement.z_op(6, 1, 0), PauliElement.identity(6, 1)])
    yield validate(6, 1, [PauliElement.identity(6, 1), PauliElement.z_op(6, 1, 0, 2),
                          PauliElement.z_op(6, 1, 0, 3), PauliElement.identity(6, 1)])
    yield validate(4, 2, [PauliElement.identity(4, 2)])
    yield x4z4_group()
    for _ in range(30):
        group = random_stabilizer_group(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 2))
        gens = list(group.generators)
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), PauliElement.identity(group.d, group.n))
        if len(gens) <= 4:
            yield validate(group.d, group.n, gens)


class TestRelationKernel:
    def test_computed_once_per_group(self, monkeypatch):
        # a fresh, unvalidated group: the first validate_character computes it
        model = build_model(torus_grid_graph(8, 8), 6)
        group = stabilizer.StabilizerGroup(6, model.n, model.stabilizer.generators)
        calls = []
        real = zmod.SmithForm.kernel

        def counting(smith):
            calls.append(smith.shape)
            return real(smith)

        monkeypatch.setattr(zmod.SmithForm, "kernel", counting)
        chi = CharacterMap((0,) * len(group.generators))
        for _ in range(20):
            validate_character(group, chi)
        assert len(calls) <= 1
        assert isinstance(group.relation_kernel(), tuple)
        assert group.relation_kernel() is group.relation_kernel()

    @pytest.mark.parametrize("group", list(relation_kernel_cases()))
    def test_spans_enumerated_left_kernel(self, group):
        d, g = group.d, len(group.generators)
        rows = group.tau_rows

        def image(lam):
            return tuple(sum(l * row[i] for l, row in zip(lam, rows)) % d
                         for i in range(2 * group.n))

        zero = (0,) * (2 * group.n)
        left_kernel = {lam for lam in itertools.product(range(d), repeat=g) if image(lam) == zero}
        relations = group.relation_kernel()
        assert all(len(lam) == g and image(lam) == zero for lam in relations)
        assert brute_span(relations, d, g) == left_kernel


@st.composite
def word_cases(draw):
    """An unvalidated group (random phases, entries possibly zero) and exponents that
    are negative, multiples of d, or at least phase_modulus(d)."""
    d = draw(st.sampled_from([2, 3, 6, 12, 2**64]))
    n = draw(st.integers(min_value=1, max_value=4))
    db = phase_modulus(d)
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=d - 1))
    gen = st.builds(lambda c, a, b: PauliElement(d, n, c, a, b), st.integers(min_value=0, max_value=db - 1),
                    st.tuples(*[entry] * n), st.tuples(*[entry] * n))
    gens = draw(st.lists(gen, max_size=5))
    exponent = st.one_of(
        st.integers(min_value=-3 * db, max_value=-1),
        st.integers(min_value=-3, max_value=3).map(lambda k: k * d),
        st.integers(min_value=db, max_value=4 * db),
        st.integers(min_value=0, max_value=db - 1),
    )
    return StabilizerGroup(d, n, gens), draw(st.lists(exponent, min_size=len(gens), max_size=len(gens)))


class TestWord:
    @given(word_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_multiply_power_fold(self, case):
        group, exponents = case
        assert group.word(exponents) == word_reference(group, exponents)

    def test_length_mismatch_raises(self):
        group = StabilizerGroup(6, 2, [PauliElement.z_op(6, 2, 0), PauliElement.x_op(6, 2, 1)])
        with pytest.raises(ValueError, match="1 exponents for 2 generators"):
            group.word((1,))
        with pytest.raises(ValueError, match="3 exponents for 2 generators"):
            group.word((1, 0, 2))


class TestMembership:
    def test_identity(self):
        group = validate(4, 1, [PauliElement.z_op(4, 1, 0)])
        assert membership(group, PauliElement.identity(4, 1))

    def test_phase_mismatch(self):
        group = validate(4, 1, [PauliElement.z_op(4, 1, 0)])
        assert not membership(group, PauliElement(4, 1, 1, (0,), (1,)))

    def test_canonical_phase_product(self):
        group = x4z4_group()
        prod = multiply(PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4))
        assert membership(group, prod)
        assert not membership(group, multiply(PauliElement.scalar(8, 1, 1), prod))

    def test_enumeration_cross_check(self):
        rng = random.Random(40)
        for _ in range(25):
            group = random_stabilizer_group(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 2))
            elements = list(group.elements(limit=512))
            assert len(elements) == len(set(elements)) == group.cardinality
            for p in elements:
                assert membership(group, p)
                assert order(p) <= group.d
            # the closure of the generators under multiply, by BFS from the identity
            closure = {PauliElement.identity(group.d, group.n)}
            queue = deque(closure)
            while queue:
                p = queue.popleft()
                for g in group.generators:
                    q = multiply(p, g)
                    if q not in closure:
                        closure.add(q)
                        queue.append(q)
            assert set(elements) == closure

    def test_queries_share_one_smith_form(self, monkeypatch):
        rng = random.Random(41)
        group = validate(12, 2, [PauliElement.z_op(12, 2, 0, 3), PauliElement.x_op(12, 2, 1, 2),
                                 PauliElement.z_op(12, 2, 1, 6)])
        members = [group.word((rng.randrange(12), rng.randrange(12), rng.randrange(12)))
                   for _ in range(25)]
        others = [multiply(PauliElement.scalar(12, 2, 1 + rng.randrange(23)), p) for p in members]
        calls = []
        real = zmod.smith_normal_form

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(zmod, "smith_normal_form", counting)
        assert [membership(group, p) for p in members] == [True] * 25
        assert [membership(group, p) for p in others] == [False] * 25
        assert len(calls) == 0

    def test_queries_build_no_transform(self, monkeypatch):
        group = x4z4_group()
        widths = record_replays(monkeypatch)
        members = [group.word((i, j)) for i in range(3) for j in range(3)]
        assert all(membership(group, p) for p in members)
        assert not membership(group, PauliElement.x_op(8, 1, 0, 2))
        # queries replay their vectors; only the quasi-basis picks rows of v^-1, one per factor
        assert widths == []
        assert len(group.tau_image.quasi_basis()) == group.tau_image.rank
        assert widths == [group.tau_image.rank]


class TestCosetOrderMatchedLift:
    def test_failed_check_raises_under_optimisation(self):
        # the final check must survive python -O, which strips asserts; dropping
        # the zeta correction leaves Z with Z^2 outside <zeta^4 Z^2> = <-Z^2>
        script = textwrap.dedent("""
            import quditstab.stabilizer as S
            from quditstab.pauli import PauliElement
            group = S.validate(4, 1, [PauliElement(4, 1, 4, (0,), (2,))])
            S.multiply = lambda p, q: q
            try:
                S.coset_order_matched_lift(group, (1, 0), 2)
            except AssertionError as exc:
                print("raised:", exc)
            else:
                print("returned")
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised:"), out.stdout

    def test_every_lift_is_checked_against_the_normaliser(self, monkeypatch):
        # the pair is (X_2, Z_2^5); X_1 on the second lift keeps the pair's
        # phase but no longer commutes with Z_1
        group = validate(6, 2, [PauliElement.z_op(6, 2, 0)])
        real = stabilizer.coset_order_matched_lift
        lifts = []

        def tampered(group, v, coset_order):
            lifts.append(real(group, v, coset_order))
            return multiply(lifts[-1], PauliElement.x_op(6, 2, 0)) if len(lifts) == 2 else lifts[-1]

        monkeypatch.setattr(stabilizer, "coset_order_matched_lift", tampered)
        with pytest.raises(InternalInvariant) as info:
            analyze(group)
        assert (info.value.stage, info.value.detail) == (
            "analyze.lifts", "logical operator escapes the normaliser")

    def test_failed_check_names_its_stage(self, monkeypatch):
        import quditstab.stabilizer as S

        group = validate(4, 1, [PauliElement(4, 1, 4, (0,), (2,))])
        monkeypatch.setattr(S, "multiply", lambda p, q: q)
        with pytest.raises(InternalInvariant) as info:
            S.coset_order_matched_lift(group, (1, 0), 2)
        assert info.value.stage == "analyze.lifts"
        assert info.value.detail == "corrected lift does not reach the group"


class TestNormalizerMembership:
    def test_examples(self):
        group = validate(4, 2, [PauliElement.z_op(4, 2, 0)])
        assert normalizer_membership(group, PauliElement.z_op(4, 2, 0))
        assert not normalizer_membership(group, PauliElement.x_op(4, 2, 0))
        assert normalizer_membership(group, PauliElement.x_op(4, 2, 1))

    def test_dimension_mismatch(self):
        group = validate(4, 2, [PauliElement.z_op(4, 2, 0)])
        with pytest.raises(DimensionMismatch):
            normalizer_membership(group, PauliElement.x_op(4, 3, 0))
        with pytest.raises(DimensionMismatch):
            character_action(group, CharacterMap((0,)), PauliElement.x_op(6, 2, 0))


class TestAnalyze:
    @pytest.mark.parametrize("d,n,k", [(2, 2, 1), (3, 3, 2), (4, 2, 2), (6, 2, 1)])
    def test_free_groups(self, d, n, k):
        group = validate(d, n, [PauliElement.z_op(d, n, i) for i in range(k)])
        report = analyze(group)
        assert report.kind == "FREE" and report.rank == k
        assert report.dim_protected == d ** (n - k)
        assert report.quotient_divisors == (d,) * (n - k)
        assert report.cardinality == d**k

    def test_torus_5x5_build_and_analyze_reduce_one_matrix(self, monkeypatch):
        # tau's Smith form serves the relation kernel, perp, membership and
        # the lifts; the carrier perp(tau) is never reduced
        calls = count_reductions(monkeypatch)
        group = build_model(torus_grid_graph(5, 5), 6).stabilizer
        report = analyze(group)
        assert report.quotient_divisors == (6, 6)
        assert [mat.shape for mat in calls] == [(50, 100)]

    def test_unvalidated_group_fails_the_dimension_check(self):
        # Z_1 and X_1^2 pair to 2 at d=6, so tau is not isotropic; analyze
        # makes no entry check of its own and its dimension check catches it
        group = StabilizerGroup(6, 2, [PauliElement.z_op(6, 2, 0), PauliElement.x_op(6, 2, 0, 2)])
        with pytest.raises(InternalInvariant) as info:
            analyze(group)
        assert info.value.stage == "analyze.dimension"

    def test_torus_8x8_pairs_through_tables(self, monkeypatch):
        # validate, the Gram matrix of perp(tau) and the lifts' normaliser
        # check each read one pairing_table; pairing each pair on its own made
        # 25,025 pairing and 8,642 commutation_phase calls here
        counts = count_pairings(monkeypatch)
        report = analyze(build_model(torus_grid_graph(8, 8), 6).stabilizer)
        assert counts["pairing"] == 0
        assert counts["commutation_phase"] <= len(report.logical_operators)

    def test_golden_d8(self):
        report = analyze(x4z4_group())
        assert report.dim_protected == 2
        assert report.quotient_divisors == (2,)
        assert report.canonical_chain == (2,)
        assert report.kind == "GENERAL"
        (pair,) = report.logical_operators
        assert commutation_phase(pair.z_like, pair.x_like) == 4  # d / d_r
        assert membership(x4z4_group(), power(pair.z_like, 2))

    def test_z_squared_d4(self):
        group = validate(4, 1, [PauliElement.z_op(4, 1, 0, 2)])
        report = analyze(group)
        assert report.cardinality == 2
        assert report.dim_protected == 2
        assert report.quotient_divisors == (2,)
        assert report.kind == "GENERAL"

    def test_shifted_free(self):
        group = validate(4, 1, [order_matched_lift(4, (2, 0)), order_matched_lift(4, (0, 2))])
        report = analyze(group)
        assert report.kind == "SHIFTED_FREE" and report.rank == 1
        assert report.dim_protected == 1

    def test_logical_operator_contract(self):
        rng = random.Random(41)
        for _ in range(60):
            d = rng.choice([2, 3, 4, 6, 8])
            n = rng.randint(1, 3)
            group = random_stabilizer_group(rng, d, n)
            report = analyze(group)
            assert report.dim_protected * group.cardinality == d**n
            prod = 1
            for dv in report.quotient_divisors:
                prod *= dv
            assert prod == report.dim_protected
            pairs = report.logical_operators
            for i, p1 in enumerate(pairs):
                assert commutation_phase(p1.z_like, p1.x_like) == (d // p1.divisor) % d
                assert normalizer_membership(group, p1.z_like)
                assert normalizer_membership(group, p1.x_like)
                assert membership(group, power(p1.z_like, p1.divisor))
                assert membership(group, power(p1.x_like, p1.divisor))
                for j, p2 in enumerate(pairs):
                    if i != j:
                        for u in (p1.z_like, p1.x_like):
                            for w in (p2.z_like, p2.x_like):
                                assert commutation_phase(u, w) == 0

    def test_presentation_invariance(self):
        rng = random.Random(42)
        for _ in range(40):
            d = rng.choice([2, 3, 4, 6, 8])
            n = rng.randint(1, 3)
            group = random_stabilizer_group(rng, d, n)
            if not group.generators:
                continue
            words = []
            for _ in range(len(group.generators) + 1):
                w = PauliElement.identity(d, n)
                for g in group.generators:
                    w = multiply(w, power(g, rng.randrange(d)))
                words.append(w)
            regenerated = validate(d, n, list(group.generators) + words)
            r1, r2 = analyze(group), analyze(regenerated)
            assert r1.quotient_divisors == r2.quotient_divisors
            assert r1.canonical_chain == r2.canonical_chain
            assert r1.classification == r2.classification
            assert r1.cardinality == r2.cardinality
            assert r1.dim_protected == r2.dim_protected


class TestReportJson:
    def test_round_trip(self):
        general = validate(6, 2, [PauliElement.z_op(6, 2, 0, 2), PauliElement.x_op(6, 2, 1, 2)])
        groups = [build_model(torus_grid_graph(2, 2), 2).stabilizer, x4z4_group(), general]
        reports = [analyze(group) for group in groups]
        assert [r.kind for r in reports] == ["FREE", "GENERAL", "GENERAL"]
        for report in reports:
            assert StabilizerReport.from_json_dict(report.to_json_dict(), report.d, report.n) == report

    def test_read_in_the_given_dimensions(self):
        report = analyze(x4z4_group())
        obj = report.to_json_dict()
        del obj["d"], obj["n"]
        assert StabilizerReport.from_json_dict(obj, report.d, report.n) == report
        with pytest.raises(DimensionMismatch, match=r"report has \(d, n\) = \(8, 1\), not \(4, 1\)"):
            StabilizerReport.from_json_dict(report.to_json_dict(), 4, 1)


class TestCanonicalConjugation:
    def test_already_canonical(self):
        group = validate(5, 1, [PauliElement.z_op(5, 1, 0)])
        conj = canonical_conjugation(group)
        assert all(conj.apply(g) == g for g in group.generators)

    def test_xi_z_phase_fix(self):
        group = validate(3, 1, [PauliElement(3, 1, 2, (0,), (1,))])  # <xi Z>
        conj = canonical_conjugation(group)
        images = validate(3, 1, [conj.apply(g) for g in group.generators])
        target = validate(3, 1, [PauliElement.z_op(3, 1, 0)])
        assert all(membership(target, p) for p in images.elements())
        assert all(membership(images, p) for p in target.elements())

    def test_xx_to_z(self):
        group = validate(2, 2, [multiply(PauliElement.x_op(2, 2, 0), PauliElement.x_op(2, 2, 1))])
        conj = canonical_conjugation(group)
        images = validate(2, 2, [conj.apply(g) for g in group.generators])
        target = validate(2, 2, [PauliElement.z_op(2, 2, 0)])
        assert images.tau_image == target.tau_image
        assert all(membership(target, p) for p in images.elements())

    def test_rejects_non_free(self):
        with pytest.raises(NotFree):
            canonical_conjugation(validate(4, 1, [PauliElement.z_op(4, 1, 0, 2)]))

    def test_random_free_groups(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
            d = rng.choice([2, 3, 4, 5, 6])
            n = rng.randint(1, 3)
            space = SymplecticSpace(n, d)
            k = rng.randint(1, n)
            vecs = [tuple(1 if i == j else 0 for i in range(2 * n)) for j in range(k)]
            for _ in range(6):
                v = tuple(rng.randrange(d) for _ in range(2 * n))
                vecs = [
                    tuple((u[i] + space.pairing(u, v) * v[i]) % d for i in range(2 * n))
                    for u in vecs
                ]
            sub = Submodule(d, 2 * n, vecs)
            if not sub.is_free or sub.rank != k:
                continue
            gens = [
                multiply(PauliElement.scalar(d, n, 2 * rng.randrange(d)), order_matched_lift(d, v))
                for v in vecs
            ]
            group = validate(d, n, gens)
            conj = canonical_conjugation(group)
            images = validate(d, n, [conj.apply(g) for g in group.generators])
            target = validate(d, n, [PauliElement.z_op(d, n, i) for i in range(k)])
            assert images.tau_image == target.tau_image
            for g in images.generators:
                assert membership(target, g)
            done += 1

    # an inverse solved column by column (cmat @ x = unit, for each of the 2n
    # units) reduces the 2n x 2n basis matrix 2n times: 67 reductions in all here
    SOLVED_INVERSE_REDUCTIONS = 67

    def test_inverse_read_from_the_pairing(self, monkeypatch):
        d, n = 12, 12

        def make():
            return block_group(random.Random(7), d, n, [(1, d)] * 4)

        assert analyze(make()).classification == "FREE(4)"
        group = make()  # fresh caches, so every reduction below is counted
        bases = []
        real_extend = stabilizer.extend_isotropic_basis

        def recording(space, basis):
            bases.append(real_extend(space, basis))
            return bases[-1]

        calls = count_reductions(monkeypatch)
        monkeypatch.setattr(stabilizer, "extend_isotropic_basis", recording)
        conj = canonical_conjugation(group)
        assert len(calls) <= self.SOLVED_INVERSE_REDUCTIONS - 2 * n
        assert (2 * n, 2 * n) not in [mat.shape for mat in calls]
        es, fs = bases[0]
        cmat = ZdMatrix.from_rows(d, list(zip(*(es + fs))), cols=2 * n)
        assert conj.symplectic_map @ cmat == ZdMatrix.identity(d, 2 * n)
        target = validate(d, n, [PauliElement.z_op(d, n, i) for i in range(4)])
        assert all(membership(target, conj.apply(g)) for g in group.generators)

    def test_reduces_no_matrix_twice(self, monkeypatch):
        # one reduction serves all k duals, and H's own cached solve all k
        # images; solving each on its own reduced the same matrix k times
        d, n, k = 12, 12, 8
        group = block_group(random.Random(7), d, n, [(1, d)] * k)
        calls = count_reductions(monkeypatch)
        canonical_conjugation(group)
        assert len({mat.entries for mat in calls}) == len(calls)

    def test_free8_reduces_two_matrices(self, monkeypatch):
        # the basis of tau for the duals and (es, fs) for its perp; the images
        # come from H's own solve and the perp's blocks need no Smith form
        d, n, k = 12, 12, 8
        group = block_group(random.Random(7), d, n, [(1, d)] * k)
        calls = count_reductions(monkeypatch)
        canonical_conjugation(group)
        assert len(calls) <= 2

    def test_bad_basis_names_its_stage(self, monkeypatch):
        real_extend = stabilizer.extend_isotropic_basis

        def scaled(space, basis):
            es, fs = real_extend(space, basis)
            return es, (vec_scale(2, fs[0], space.modulus),) + fs[1:]

        monkeypatch.setattr(stabilizer, "extend_isotropic_basis", scaled)
        with pytest.raises(InternalInvariant) as info:
            canonical_conjugation(validate(5, 2, [PauliElement.z_op(5, 2, 0)]))
        assert info.value.stage == "canonicalize.basis"

    def test_bad_e_names_its_stage(self, monkeypatch):
        real_extend = stabilizer.extend_isotropic_basis

        def scaled(space, basis):
            es, fs = real_extend(space, basis)
            return (vec_scale(2, es[0], space.modulus),) + es[1:], fs

        monkeypatch.setattr(stabilizer, "extend_isotropic_basis", scaled)
        with pytest.raises(InternalInvariant) as info:
            canonical_conjugation(validate(5, 2, [PauliElement.z_op(5, 2, 0)]))
        assert info.value.stage == "canonicalize.basis"

    def test_torus_6x6_makes_few_multiplies(self, monkeypatch):
        # the presentation is checked by pairings and closed-form phases; a replay
        # with Pauli products over all 4n^2 image pairs makes some 83,000 here
        group = build_model(torus_grid_graph(6, 6), 6).stabilizer
        calls = count_multiplies(monkeypatch)
        canonical_conjugation(group)
        assert len(calls) < 1000


def character_cases():
    """relation_kernel_cases, two groups without relations (one with no generators) and torus models."""
    yield from relation_kernel_cases()
    yield validate(4, 1, [])
    yield validate(6, 2, [PauliElement.z_op(6, 2, 0), PauliElement.x_op(6, 2, 1)])
    for d in (2, 3, 4):
        yield build_model(torus_grid_graph(2, 2), d).stabilizer


class TestCharacters:
    @pytest.mark.parametrize("group", list(character_cases()))
    def test_column_span_is_the_annihilator_of_the_relations(self, monkeypatch, group):
        want = characters_reference(group)
        calls = count_reductions(monkeypatch)
        got = [chi.values for chi in characters(group)]
        assert len(calls) == 1
        assert len(got) == len(set(got)) == group.cardinality
        assert set(got) == want

    def test_normalizer_fixes(self):
        group = validate(4, 2, [PauliElement.z_op(4, 2, 0)])
        chi = CharacterMap((0,))
        assert character_action(group, chi, PauliElement.z_op(4, 2, 1)) == chi
        assert character_action(group, chi, PauliElement.scalar(4, 2, 3)) == chi

    def test_shift_formula(self):
        group = validate(4, 2, [PauliElement.z_op(4, 2, 0)])
        chi = CharacterMap((0,))
        moved = character_action(group, chi, PauliElement.x_op(4, 2, 0))
        expected = (-commutation_phase(PauliElement.x_op(4, 2, 0), PauliElement.z_op(4, 2, 0))) % 4
        assert moved.values == (expected,)

    def test_transitive_orbit(self):
        # the orbit of the trivial character under all of P_n is everything
        group = validate(4, 1, [PauliElement.z_op(4, 1, 0, 2)])
        seen = {CharacterMap((0,)).values}
        frontier = [CharacterMap((0,))]
        probes = [PauliElement.x_op(4, 1, 0), PauliElement.z_op(4, 1, 0)]
        while frontier:
            chi = frontier.pop()
            for p in probes:
                nxt = character_action(group, chi, p)
                if nxt.values not in seen:
                    seen.add(nxt.values)
                    frontier.append(nxt)
        assert len(seen) == group.cardinality
        assert seen == {c.values for c in characters(group)}

    def test_json_round_trip(self):
        group = build_model(torus_grid_graph(2, 2), 4).stabilizer
        for chi in characters(group)[:16] + [CharacterMap((1, 3, 0, 0, 0, 0, 0, 0))]:
            obj = json.loads(json.dumps(chi.to_json_dict()))
            assert CharacterMap.from_json_dict(obj) == chi

    def test_from_json_rejects_non_integers(self):
        with pytest.raises(TypeError, match="values must be an integer"):
            CharacterMap.from_json_dict({"values": [1, 2.0]})


class TestCssSplit:
    def test_pure_z(self):
        split = css_split(validate(3, 1, [PauliElement.z_op(3, 1, 0)]))
        assert split is not None and len(split.x_part) == 0

    def test_mixed_rejected(self):
        mixed = multiply(PauliElement.x_op(4, 2, 0), PauliElement.z_op(4, 2, 1))
        assert css_split(validate(4, 2, [mixed])) is None

    def test_x4z4_splits(self):
        split = css_split(x4z4_group())
        assert split is not None
        assert len(split.z_part) == 1 and len(split.x_part) == 1


class TestFreeEnvelope:
    def test_lagrangian_in_envelope(self):
        group = validate(
            4, 2, [order_matched_lift(4, (2, 0, 0, 0)), order_matched_lift(4, (0, 0, 2, 0))]
        )
        report = analyze(group)
        assert report.kind == "SHIFTED_FREE"
        envelope = free_symplectic_envelope(group, report)
        assert envelope.invariant_factors == (4, 4)
        assert envelope.contains_module(group.tau_image)
        # Lagrangian inside the envelope: perp-within equals the image
        inner = perp(group.space, group.tau_image).intersection(envelope)
        assert inner == group.tau_image
