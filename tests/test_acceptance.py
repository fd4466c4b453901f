"""Acceptance suite: one test per criterion, all arithmetic exact.

A `criterion N (<name>): PASS|FAIL` line is printed for each test in the
terminal summary (see conftest.py).
"""

import random
import time

import pytest

from quditstab.heisenberg import heisenberg_structure
from quditstab.kitaev import (
    ShiftPair,
    apply_twist,
    build_model,
    charge_configuration,
    genus2_bouquet_graph,
    path_operator,
    dual_path_operator,
    tetrahedron_graph,
    torus_grid_graph,
)
from quditstab.oracle import (
    eigenspace_dimensions,
    protected_basis,
    protected_dimension,
    represent,
    verify_report,
)
from quditstab.pauli import (
    PauliElement,
    order_matched_lift,
    phase_modulus,
    power,
)
from quditstab.stabilizer import (
    CharacterMap,
    analyze,
    character_action,
    free_symplectic_envelope,
    validate,
)
from quditstab.symplectic import (
    SymplecticSpace,
    lagrangian_canonical_form,
    perp,
    structure_decomposition,
    symplectic_basis,
)
from quditstab.zmod import Submodule, ZdMatrix, smith_normal_form, vec_scale
from tests.helpers import (
    divisors,
    random_stabilizer_group,
    random_symplectic_matrix,
    smith_diagonal,
    smith_u,
    smith_v,
)

import math


def criterion(num, name):
    """Tag a test as one acceptance criterion; conftest prints its line."""
    return pytest.mark.criterion(num, name)


@criterion(1, "dimension formula vs oracle")
def test_criterion_1_dimension_formula():
    rng = random.Random(101)
    start = time.time()
    count = 0
    dims = [2, 3, 4, 6, 8]
    while count < 200:
        d = dims[count % len(dims)]
        n = rng.randint(1, 3)
        group = random_stabilizer_group(rng, d, n)
        report = analyze(group)
        assert protected_dimension(group) == report.dim_protected
        count += 1
    assert time.time() - start < 120


@criterion(2, "free theorem")
def test_criterion_2_free_theorem():
    rng = random.Random(102)
    done = 0
    while done < 20:
        d = rng.choice([2, 3, 4])
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        base = validate(d, n, [PauliElement.z_op(d, n, i) for i in range(k)])
        from quditstab.heisenberg import lift_symplectic

        psi = random_symplectic_matrix(rng, n, d)
        aut = lift_symplectic(SymplecticSpace(n, d), psi)
        group = validate(d, n, [aut.apply(g) for g in base.generators])
        report = analyze(group)
        assert report.kind == "FREE" and report.rank == k
        assert report.quotient_divisors == (d,) * (n - k)
        # the quotient module itself is free of rank 2(n-k)
        quotient_card = 1
        for dv in report.quotient_divisors:
            quotient_card *= dv * dv
        assert quotient_card == d ** (2 * (n - k))
        verdict = verify_report(group, report)
        assert verdict.passed, verdict.details
        done += 1
    # the plain base groups themselves
    for d in (2, 3, 4):
        for n in (1, 2, 3):
            for k in range(1, n + 1):
                group = validate(d, n, [PauliElement.z_op(d, n, i) for i in range(k)])
                report = analyze(group)
                assert report.kind == "FREE" and report.rank == k
                assert verify_report(group, report).passed


@criterion(3, "d=8 golden example")
def test_criterion_3_golden_example():
    group = validate(8, 1, [PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4)])
    report = analyze(group)
    assert report.dim_protected == 2
    assert report.quotient_divisors == (2,)
    assert report.canonical_chain == (2,)
    # N(H)/H is the one-qubit Pauli group with a 16th root of unity:
    # Heisenberg extension of the S_2 quotient, order 16 * 2^2
    space = SymplecticSpace(1, 8)
    structure = heisenberg_structure(
        space, perp(space, group.tau_image), group.tau_image
    )
    assert structure.block_divisors == (2,)
    assert structure.group_order == phase_modulus(8) * 4
    dims = eigenspace_dimensions(group)
    assert len(dims) == 4 and set(dims.values()) == {2}
    verdict = verify_report(group, report)
    assert verdict.passed and verdict.histogram == {2: 4}


@criterion(4, "Kitaev genus law")
def test_criterion_4_kitaev_genus_law():
    start = time.time()
    for d in (2, 3):
        sphere = build_model(tetrahedron_graph(), d)
        report = analyze(sphere.stabilizer)
        assert report.dim_protected == d**0 == 1
        assert verify_report(sphere.stabilizer, report).passed
        torus = build_model(torus_grid_graph(2, 2), d)
        report = analyze(torus.stabilizer)
        assert report.dim_protected == d**2
        assert verify_report(torus.stabilizer, report).passed
    assert time.time() - start < 10
    for d in (2, 3, 4):
        bouquet = build_model(genus2_bouquet_graph(), d)
        report = analyze(bouquet.stabilizer)
        assert report.quotient_divisors == (d, d, d, d)
        assert report.dim_protected == d**4


@criterion(5, "shifted-free iff")
def test_criterion_5_shifted_free_iff():
    rng = random.Random(105)

    def lifted_group(d, n, vectors):
        gens = [order_matched_lift(d, v) for v in vectors]
        return validate(d, n, gens)

    def quotient_all_d(report, d):
        return all(dv == d for dv in report.quotient_divisors)

    shifted_cases = 0
    while shifted_cases < 50:
        d = rng.choice([4, 6, 8, 9])
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        psi = random_symplectic_matrix(rng, n, d)
        es = [psi.col(i) for i in range(n)]
        fs = [psi.col(n + i) for i in range(n)]
        proper = [a for a in divisors(d) if 1 < a < d and (a * a) % d == 0]
        if not proper:
            continue
        vectors = []
        has_proper = False
        for r in range(k):
            a = rng.choice(proper + [1, d]) if r else rng.choice(proper)
            if 1 < a < d:
                has_proper = True
            vectors.append(vec_scale(a, es[r], d))
            vectors.append(vec_scale(d // a, fs[r], d))
        if not has_proper:
            continue
        group = lifted_group(d, n, [v for v in vectors if any(v)])
        report = analyze(group)
        assert report.kind == "SHIFTED_FREE", report.classification
        assert quotient_all_d(report, d)
        # exhibited free symplectic envelope contains tau(H) as a Lagrangian
        envelope = free_symplectic_envelope(group, report)
        assert envelope.is_free and envelope.rank % 2 == 0
        assert envelope.contains_module(group.tau_image)
        inner_perp = perp(group.space, group.tau_image).intersection(envelope)
        assert inner_perp == group.tau_image
        # and the Lagrangian canonical form machinery accepts it in the
        # coordinates of a symplectic basis of the envelope, where the form is standard
        env_es, env_fs = symplectic_basis(group.space, envelope)
        basis = list(env_es) + list(env_fs)
        bt = ZdMatrix.from_rows(d, basis, cols=2 * n).transpose()
        local_l = []
        for g in group.tau_image.generators:
            coords = smith_normal_form(bt).solve(g)
            assert coords is not None
            local_l.append(coords)
        local_space = SymplecticSpace(len(env_es), d)
        form = lagrangian_canonical_form(local_space, Submodule(d, len(basis), local_l))
        assert form.reconstruct() == Submodule(d, len(basis), local_l)
        shifted_cases += 1

    general_cases = 0
    group = validate(4, 1, [PauliElement.z_op(4, 1, 0, 2)])  # <Z^2> at d=4
    report = analyze(group)
    assert report.kind == "GENERAL" and not quotient_all_d(report, 4)
    general_cases += 1
    while general_cases < 50:
        d = rng.choice([4, 6, 8, 9])
        n = rng.randint(1, 3)
        psi = random_symplectic_matrix(rng, n, d)
        es = [psi.col(i) for i in range(n)]
        fs = [psi.col(n + i) for i in range(n)]
        # one block with a genuine twist defect c > 1: d | a*b, a*b > d
        options = [
            (a, b)
            for a in divisors(d)
            for b in divisors(d)
            if (a * b) % d == 0 and a * b > d and a < d and b < d
        ]
        if not options:
            continue
        a, b = rng.choice(options)
        vectors = [vec_scale(a, es[0], d), vec_scale(b, fs[0], d)]
        group = lifted_group(d, n, vectors)
        report = analyze(group)
        assert report.kind == "GENERAL", report.classification
        assert not quotient_all_d(report, d)
        general_cases += 1


@criterion(6, "twisted Kitaev at d=4")
def test_criterion_6_twisted_kitaev():
    start = time.time()
    model = build_model(torus_grid_graph(2, 2), 4)
    pairs = [ShiftPair((0, 1), 4, 2, ((("h", 0, 0), False),))]
    group = apply_twist(model, (0, 0), pairs)
    report = analyze(group)
    assert report.dim_protected == 32 == 4**2 * 2
    verdict = verify_report(group, report)
    assert verdict.passed, verdict.details
    assert time.time() - start < 30


@criterion(7, "symplectic algebra suite")
def test_criterion_7_symplectic_algebra():
    rng = random.Random(107)
    start = time.time()
    for _ in range(1000):
        d = rng.choice([2, 3, 4, 5, 6, 8, 9, 12])
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        mat = ZdMatrix.from_rows(
            d, [[rng.randrange(d) for _ in range(c)] for _ in range(r)], cols=c
        )
        s = smith_normal_form(mat)
        u, v = smith_u(s), smith_v(s)
        assert math.gcd(u.det(), d) == 1 and math.gcd(v.det(), d) == 1
        assert (u @ mat @ v).entries == smith_diagonal(s).entries
        for x, y in zip(s.diag, s.diag[1:]):
            assert y % x == 0
        for x in s.diag:
            assert d % x == 0
    for _ in range(500):
        d = rng.choice([2, 3, 4, 6, 8])
        n = rng.randint(1, 2)
        space = SymplecticSpace(n, d)
        sub = Submodule(
            d, 2 * n,
            [tuple(rng.randrange(d) for _ in range(2 * n)) for _ in range(rng.randint(0, 3))],
        )
        comp = perp(space, sub)
        assert comp.cardinality * sub.cardinality == d ** (2 * n)
        assert perp(space, comp) == sub
    for _ in range(60):
        d = rng.choice([2, 3, 4, 6, 8])
        n = rng.randint(1, 2)
        space = SymplecticSpace(n, d)
        vecs = []
        for _ in range(rng.randint(0, n)):
            v = tuple(rng.randrange(d) for _ in range(2 * n))
            if all(space.pairing(v, w) == 0 for w in vecs):
                vecs.append(v)
        modulo = Submodule(d, 2 * n, vecs)
        blocks = structure_decomposition(space, perp(space, modulo), modulo)
        for i, b1 in enumerate(blocks):
            assert space.pairing(b1.e, b1.f) == d // b1.divisor
            for b2 in blocks[i + 1:]:
                assert space.pairing(b1.e, b2.e) == 0
                assert space.pairing(b1.e, b2.f) == 0
                assert space.pairing(b1.f, b2.f) == 0
    for _ in range(60):
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
        form = lagrangian_canonical_form(space, lagr)
        assert form.reconstruct() == lagr
        chain = form.divisors
        for x, y in zip(chain, chain[1:]):
            assert y % x == 0
        assert d % chain[-1] == 0 and (chain[0] ** 2) % d == 0
    assert time.time() - start < 60


@criterion(8, "transitivity and braiding")
def test_criterion_8_transitivity_braiding():
    rng = random.Random(108)
    # eigenspace dimensions all equal for every tested group
    for _ in range(40):
        group = random_stabilizer_group(rng, rng.choice([2, 3, 4, 6, 8]), rng.randint(1, 3))
        dims = eigenspace_dimensions(group)
        assert len(set(dims.values())) == 1
        assert len(dims) == group.cardinality
    group = validate(8, 1, [PauliElement.x_op(8, 1, 0, 4), PauliElement.z_op(8, 1, 0, 4)])
    assert set(eigenspace_dimensions(group).values()) == {2}
    torus2 = build_model(torus_grid_graph(2, 2), 2)
    assert len(set(eigenspace_dimensions(torus2.stabilizer).values())) == 1

    # braiding: a face loop acts on V_chi by exactly xi^{+-q_f}
    d = 3
    model = build_model(torus_grid_graph(2, 2), d)
    group = model.stabilizer
    db = phase_modulus(d)
    trivial = CharacterMap((0,) * len(group.generators))
    chi = character_action(
        group, trivial, dual_path_operator(model, [(("v", 0, 0), False)])
    )
    charges = charge_configuration(model, chi)
    loop_steps = [
        (("h", 0, 0), False),
        (("v", 0, 1), False),
        (("h", 1, 0), True),
        (("v", 0, 0), True),
    ]
    loop = path_operator(model, loop_steps)
    face, k = next(
        (f, k)
        for f in model.face_ops
        for k in (1, d - 1)
        if loop == power(model.face_ops[f], k)
    )
    q_f = charges.magnetic[face]
    assert q_f != 0  # the loop encircles a magnetic charge
    expect = (2 * k * q_f) % db
    rep = represent(loop)
    for vec in protected_basis(group, chi=chi.values):
        image = {rep.perm[i]: (e + rep.phase[i]) % db for i, e in vec.items()}
        assert set(image) == set(vec)
        assert {(image[i] - vec[i]) % db for i in vec} == {expect}
