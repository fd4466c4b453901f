import math
import warnings

import pytest

from quditstab.errors import (
    BadSplit,
    BadSurface,
    Disconnected,
    NotAPath,
    PathMismatch,
)
from quditstab.kitaev import (
    DegenerateModelWarning,
    Edge,
    ShiftPair,
    SurfaceGraph,
    apply_shift,
    apply_twist,
    build_model,
    charge_configuration,
    dual_path_endpoints,
    dual_path_operator,
    genus2_bouquet_graph,
    normalizer_generators,
    path_endpoints,
    path_operator,
    tetrahedron_graph,
    torus_grid_graph,
)
from quditstab.oracle import protected_basis, protected_dimension, represent, verify_report
from quditstab.pauli import PauliElement, commutation_phase, inverse, multiply, module_vector, power
from quditstab.stabilizer import (
    CharacterMap,
    analyze,
    character_action,
    membership,
    normalizer_membership,
)
from quditstab.symplectic import perp
from quditstab.zmod import Submodule

pytestmark = pytest.mark.filterwarnings("ignore::quditstab.kitaev.DegenerateModelWarning")

ROW_LOOP = ((("h", 0, 0), False), (("h", 0, 1), False))
PLAQUETTE_LOOP = (
    (("h", 0, 0), False),
    (("v", 0, 1), False),
    (("h", 1, 0), True),
    (("v", 0, 0), True),
)


class TestSurfaceGraph:
    def test_tetrahedron(self):
        graph = tetrahedron_graph()
        assert graph.genus == 0
        assert graph.euler_characteristic == 2

    def test_torus(self):
        graph = torus_grid_graph(2, 2)
        assert graph.genus == 1
        assert (len(graph.vertices), len(graph.edges), len(graph.faces)) == (4, 8, 4)

    def test_genus2(self):
        assert genus2_bouquet_graph().genus == 2

    def test_json_round_trip(self):
        graph = torus_grid_graph(2, 3)
        back = SurfaceGraph.from_json_dict(graph.to_json_dict())
        assert back.to_json_dict() == graph.to_json_dict()

    def test_side_condition_enforced(self):
        edges = [Edge("e", 0, 1), Edge("f", 1, 0)]
        faces = [[("e", "L"), ("f", "L")], [("e", "L"), ("f", "R")]]
        with pytest.raises(BadSurface):
            SurfaceGraph([0, 1], edges, faces)

    def test_disconnected(self):
        edges = [Edge("e", 0, 0), Edge("f", 1, 1)]
        faces = [[("e", "L"), ("e", "R")], [("f", "L"), ("f", "R")]]
        with pytest.raises(Disconnected):
            SurfaceGraph([0, 1], edges, faces)

    def test_degenerate_warnings(self):
        with pytest.warns(DegenerateModelWarning):
            SurfaceGraph(
                [0],
                [Edge("a", 0, 0)],
                [[("a", "L")], [("a", "R")]],
            )


class TestBuildModel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_torus_dimension(self, d):
        model = build_model(torus_grid_graph(2, 2), d)
        report = analyze(model.stabilizer)
        assert report.kind == "FREE" and report.rank == 6
        assert report.dim_protected == d**2
        assert protected_dimension(model.stabilizer) == d**2

    @pytest.mark.parametrize("d", [2, 3])
    def test_sphere_dimension(self, d):
        model = build_model(tetrahedron_graph(), d)
        report = analyze(model.stabilizer)
        assert report.dim_protected == 1
        assert protected_dimension(model.stabilizer) == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_genus2_structural(self, d):
        model = build_model(genus2_bouquet_graph(), d)
        report = analyze(model.stabilizer)
        assert report.quotient_divisors == (d,) * 4
        assert report.dim_protected == d**4

    def test_css_structure(self):
        model = build_model(torus_grid_graph(2, 2), 3)
        from quditstab.stabilizer import css_split

        split = css_split(model.stabilizer)
        assert split is not None
        assert set(split.x_part) == set(model.vertex_ops.values())
        assert set(split.z_part) == set(model.face_ops.values())

    def test_odd_euler_rejected(self):
        # one vertex, one loop edge, one face covering both sides: chi = 1
        from quditstab.errors import OddEuler

        with pytest.raises(OddEuler):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                SurfaceGraph([0], [Edge("a", 0, 0)], [[("a", "L"), ("a", "R")]])

    def test_operator_products_and_commutation(self):
        # SurfaceGraph's checks make both products the identity; KitaevModel relies on it
        graphs = [tetrahedron_graph(), torus_grid_graph(2, 2), torus_grid_graph(3, 3), genus2_bouquet_graph()]
        for graph in graphs:
            for d in (2, 3, 4, 6):
                model = build_model(graph, d)
                identity = PauliElement.identity(d, model.n)
                prod_a = identity
                for s in model.graph.vertices:
                    prod_a = multiply(prod_a, model.vertex_ops[s])
                prod_b = identity
                for f in model.face_ops:
                    prod_b = multiply(prod_b, model.face_ops[f])
                assert prod_a == identity and prod_b == identity
                ops = list(model.vertex_ops.values()) + list(model.face_ops.values())
                for i, p in enumerate(ops):
                    for q in ops[i + 1:]:
                        assert commutation_phase(p, q) == 0


class TestPathOperators:
    @pytest.fixture()
    def model(self):
        return build_model(torus_grid_graph(2, 2), 3)

    def test_empty_paths(self, model):
        assert path_operator(model, []) == PauliElement.identity(3, 8)
        assert dual_path_operator(model, []) == PauliElement.identity(3, 8)

    def test_single_edge_commutation(self, model):
        steps = [(("h", 0, 0), False)]
        op = path_operator(model, steps)
        s1, s2 = path_endpoints(model.graph, steps)
        for s in model.graph.vertices:
            c = commutation_phase(op, model.vertex_ops[s])
            assert (c != 0) == (s in (s1, s2))
        for f in model.face_ops:
            assert commutation_phase(op, model.face_ops[f]) == 0

    def test_single_crossing_commutation(self, model):
        steps = [(("v", 0, 0), False)]
        op = dual_path_operator(model, steps)
        f1, f2 = dual_path_endpoints(model.graph, steps)
        for f in model.face_ops:
            c = commutation_phase(op, model.face_ops[f])
            assert (c != 0) == (f in (f1, f2))
        for s in model.graph.vertices:
            assert commutation_phase(op, model.vertex_ops[s]) == 0

    def test_closed_loop_in_normalizer(self, model):
        loop = path_operator(model, ROW_LOOP)
        assert normalizer_membership(model.stabilizer, loop)

    def test_dual_loop_in_normalizer(self, model):
        steps = [(("v", 0, 1), False), (("v", 0, 0), False)]
        start, end = dual_path_endpoints(model.graph, steps)
        assert start == end
        loop = dual_path_operator(model, steps)
        assert normalizer_membership(model.stabilizer, loop)

    def test_face_boundary_is_face_operator(self, model):
        op = path_operator(model, PLAQUETTE_LOOP)
        assert any(
            op == power(model.face_ops[f], k) for f in model.face_ops for k in (1, model.d - 1)
        )
        assert membership(model.stabilizer, op)

    def test_composition(self, model):
        first = [(("h", 0, 0), False)]
        second = [(("h", 0, 1), False)]
        assert multiply(path_operator(model, first), path_operator(model, second)) == \
            path_operator(model, list(first) + list(second))

    def test_homotopy_invariance(self, model):
        loop = path_operator(model, ROW_LOOP)
        deformed = multiply(loop, model.face_ops[0])
        assert membership(model.stabilizer, multiply(deformed, inverse(loop)))

    def test_broken_path(self, model):
        with pytest.raises(NotAPath):
            path_operator(model, [(("h", 0, 0), False), (("h", 1, 1), False)])

    def test_path_through_a_null_vertex(self):
        # vertex ids may be JSON null; the walk must not restart at it
        graph = SurfaceGraph(
            [None, 1, 2],
            [Edge("a", None, 1), Edge("b", 1, 2), Edge("c", 2, None)],
            [[("a", "L"), ("b", "L"), ("c", "L")], [("a", "R"), ("b", "R"), ("c", "R")]],
        )
        with pytest.raises(NotAPath, match="step on edge b does not start at None"):
            path_endpoints(graph, [("c", False), ("b", False)])
        assert path_endpoints(graph, [("a", False), ("b", False)]) == (None, 2)


class TestNormalizerGenerators:
    @pytest.mark.parametrize("d", [2, 3])
    def test_span_is_perp(self, d):
        model = build_model(torus_grid_graph(2, 2), d)
        gens = normalizer_generators(model)
        for op in gens:
            assert normalizer_membership(model.stabilizer, op)
        vectors = [module_vector(op) for op in gens] + list(model.stabilizer.tau_image.generators)
        span = Submodule(d, 2 * model.n, vectors)
        assert span == perp(model.stabilizer.space, model.stabilizer.tau_image)

    def test_sphere_loops_stay_in_group(self):
        model = build_model(tetrahedron_graph(), 3)
        gens = normalizer_generators(model)
        vectors = [module_vector(op) for op in gens] + list(model.stabilizer.tau_image.generators)
        assert Submodule(3, 2 * model.n, vectors) == model.stabilizer.tau_image


class TestCharges:
    def test_trivial_character(self):
        model = build_model(torus_grid_graph(2, 2), 3)
        chi = CharacterMap((0,) * len(model.stabilizer.generators))
        cc = charge_configuration(model, chi)
        assert all(v == 0 for v in cc.electric.values())
        assert all(v == 0 for v in cc.magnetic.values())

    def test_transport_moves_unit_charge(self):
        model = build_model(torus_grid_graph(2, 2), 3)
        group = model.stabilizer
        trivial = CharacterMap((0,) * len(group.generators))
        steps = [(("h", 0, 0), False)]
        op = path_operator(model, steps)
        s1, s2 = path_endpoints(model.graph, steps)
        cc = charge_configuration(model, character_action(group, trivial, op))
        nonzero = {s: v for s, v in cc.electric.items() if v}
        # pinned convention: +e appears at the start, -e at the end
        assert nonzero == {s1: 1, s2: 3 - 1}
        assert all(v == 0 for v in cc.magnetic.values())

    def test_dual_transport_moves_magnetic_charge(self):
        model = build_model(torus_grid_graph(2, 2), 3)
        group = model.stabilizer
        trivial = CharacterMap((0,) * len(group.generators))
        steps = [(("v", 0, 0), False)]
        op = dual_path_operator(model, steps)
        f1, f2 = dual_path_endpoints(model.graph, steps)
        cc = charge_configuration(model, character_action(group, trivial, op))
        nonzero = {f: v for f, v in cc.magnetic.items() if v}
        assert set(nonzero) == {f1, f2}
        assert (nonzero[f1] + nonzero[f2]) % 3 == 0
        assert all(v == 0 for v in cc.electric.values())

    def test_braiding_phase(self):
        # a face loop acts on V_chi by exactly xi^{+-q_f}
        model = build_model(torus_grid_graph(2, 2), 3)
        group = model.stabilizer
        trivial = CharacterMap((0,) * len(group.generators))
        dual_steps = [(("v", 0, 0), False)]
        chi = character_action(group, trivial, dual_path_operator(model, dual_steps))
        cc = charge_configuration(model, chi)
        loop = path_operator(model, PLAQUETTE_LOOP)
        face, k = next(
            (f, k)
            for f in model.face_ops
            for k in (1, model.d - 1)
            if loop == power(model.face_ops[f], k)
        )
        q_f = cc.magnetic[face]
        basis = protected_basis(group, chi=chi.values)
        rep = represent(loop)
        db = 2 * 3 if 3 % 2 == 0 else 3
        expect = (2 * k * q_f) % db
        for vec in basis:
            image = {rep.perm[i]: (e + rep.phase[i]) % db for i, e in vec.items()}
            assert set(image) == set(vec)
            offsets = {(image[i] - vec[i]) % db for i in vec}
            assert offsets == {expect}


class TestShiftsAndTwists:
    PATH = ((("h", 0, 0), False),)

    def test_full_shift_d2(self):
        model = build_model(torus_grid_graph(2, 2), 2)
        group = apply_shift(model, (0, 0), [ShiftPair((0, 1), 2, 1, self.PATH)])
        report = analyze(group)
        assert report.dim_protected == 4
        assert all(dv == 2 for dv in report.quotient_divisors)
        assert protected_dimension(group) == 4

    def test_partial_shift_d4(self):
        model = build_model(torus_grid_graph(2, 2), 4)
        group = apply_shift(model, (0, 0), [ShiftPair((0, 1), 2, 2, self.PATH)])
        report = analyze(group)
        assert report.kind in ("SHIFTED_FREE", "FREE")
        assert report.dim_protected == 16
        assert protected_dimension(group) == 16

    def test_empty_pairs_is_original(self):
        model = build_model(torus_grid_graph(2, 2), 4)
        group = apply_shift(model, (0, 0), [])
        assert group.tau_image == model.stabilizer.tau_image

    def test_twist_d4(self):
        model = build_model(torus_grid_graph(2, 2), 4)
        group = apply_twist(model, (0, 0), [ShiftPair((0, 1), 4, 2, self.PATH)])
        report = analyze(group)
        assert report.dim_protected == 32
        assert 2 in report.quotient_divisors
        assert report.kind == "GENERAL"

    @pytest.mark.parametrize("d, a, b, dim", [(4, 4, 2, 32), (6, 3, 4, 36), (12, 6, 8, 288)])
    def test_twist_defect_is_gcd_a_times_gcd_b_over_d(self, d, a, b, dim):
        # a*b/d would give 32, 72 and 576: it is the defect only when a and b divide d
        group = apply_twist(build_model(torus_grid_graph(2, 2), d), (0, 0), [ShiftPair((0, 1), a, b, self.PATH)])
        report = analyze(group)
        assert report.dim_protected == dim == d * math.gcd(a, d) * math.gcd(b, d)
        if d == 4:  # 4^8 states, within the oracle's default bound
            assert verify_report(group, report).passed

    def test_unit_defect_twist_equals_shift(self):
        model = build_model(torus_grid_graph(2, 2), 4)
        twist = apply_twist(model, (0, 0), [ShiftPair((0, 1), 2, 2, self.PATH)])
        shift = apply_shift(model, (0, 0), [ShiftPair((0, 1), 2, 2, self.PATH)])
        assert twist.tau_image == shift.tau_image

    def test_bad_split(self):
        model = build_model(torus_grid_graph(2, 2), 4)
        with pytest.raises(BadSplit):
            apply_shift(model, (0, 0), [ShiftPair((0, 1), 3, 2, self.PATH)])
        with pytest.raises(BadSplit):
            apply_twist(model, (0, 0), [ShiftPair((0, 1), 3, 2, self.PATH)])

    def test_path_mismatch(self):
        model = build_model(torus_grid_graph(2, 2), 4)
        with pytest.raises(PathMismatch):
            apply_shift(model, (1, 1), [ShiftPair((0, 1), 2, 2, self.PATH)])
