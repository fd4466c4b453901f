"""The trusted constructors build exactly what the checked ones build from the same values.

PauliElement._reduced, ZdMatrix._reduced and Submodule._of_reduced skip the
reduction mod d, so only values that are canonical by construction may reach
them.  multiply, power, word and the Kitaev operators are compared with the
checked PauliElement(...) fed the same unreduced values, at small and huge d,
and Submodule._of_reduced with Submodule(...).  An ast test keeps every reader
of outside input (cli.py, oracle.py, each from_json_dict and from_text) off
the trusted path.
"""

import ast
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditstab
from quditstab.kitaev import RIGHT, build_model, genus2_bouquet_graph, tetrahedron_graph, torus_grid_graph
from quditstab.pauli import PauliElement, multiply, phase_modulus, power, support, word
from quditstab.zmod import Submodule, ZdMatrix, smith_normal_form

MODULI = (2, 6, 12, 2**64, 1000003 * 1000033)
TRUSTED = {"_reduced", "_of_reduced"}
READERS = ("from_json_dict", "from_text")


def is_canonical(p: PauliElement) -> bool:
    return (0 <= p.phase < phase_modulus(p.d) and len(p.a) == len(p.b) == p.n
            and all(0 <= x < p.d for x in p.a + p.b))


def checked_multiply(p, q):
    return PauliElement(p.d, p.n, p.phase + q.phase + 2 * sum(x * y for x, y in zip(p.b, q.a)),
                        tuple(x + y for x, y in zip(p.a, q.a)), tuple(x + y for x, y in zip(p.b, q.b)))


def checked_power(p, m):
    cross = sum(x * y for x, y in zip(p.a, p.b))
    return PauliElement(p.d, p.n, p.phase * m + m * (m - 1) * cross,
                        tuple(m * x for x in p.a), tuple(m * x for x in p.b))


@st.composite
def raw_elements(draw, count):
    """(d, n, [(phase, a, b)] * count, [m] * count) with every value drawn from [-3d, 3d]."""
    d = draw(st.sampled_from(MODULI))
    n = draw(st.integers(min_value=0, max_value=4))
    ints = st.integers(min_value=-3 * d, max_value=3 * d)
    values = [(draw(ints), tuple(draw(ints) for _ in range(n)), tuple(draw(ints) for _ in range(n)))
              for _ in range(count)]
    return d, n, values, [draw(ints) for _ in range(count)]


class TestTrustedPauliArithmetic:
    @given(raw_elements(2))
    @settings(max_examples=80, deadline=None)
    def test_multiply(self, drawn):
        d, n, values, _ = drawn
        p, q = (PauliElement(d, n, *v) for v in values)
        out = multiply(p, q)
        assert is_canonical(out)
        assert out == checked_multiply(p, q)
        # the formula on the unreduced values gives the same element
        (c, a, b), (c2, a2, b2) = values
        assert out == PauliElement(d, n, c + c2 + 2 * sum(x * y for x, y in zip(b, a2)),
                                   tuple(x + y for x, y in zip(a, a2)), tuple(x + y for x, y in zip(b, b2)))

    @given(raw_elements(1))
    @settings(max_examples=80, deadline=None)
    def test_power(self, drawn):
        d, n, [(c, a, b)], [m] = drawn
        out = power(PauliElement(d, n, c, a, b), m)
        assert is_canonical(out)
        assert out == checked_power(PauliElement(d, n, c, a, b), m)
        assert out == PauliElement(d, n, c * m + m * (m - 1) * sum(x * y for x, y in zip(a, b)),
                                   tuple(m * x for x in a), tuple(m * x for x in b))

    @given(raw_elements(4), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_word(self, drawn, k):
        d, n, values, exponents = drawn
        gens = [PauliElement(d, n, *v) for v in values]
        exponents[0] = k * d  # word skips e == 0 mod d
        phase = values[0][0]
        out = word(d, n, phase, [(support(g), e) for g, e in zip(gens, exponents)])
        assert is_canonical(out)
        expected = PauliElement.scalar(d, n, phase)
        for g, e in zip(gens, exponents):
            if e % d:  # word reads factors of order dividing d and skips e == 0 mod d
                expected = checked_multiply(expected, checked_power(g, e))
        assert out == expected


@pytest.mark.filterwarnings("ignore::quditstab.kitaev.DegenerateModelWarning")
@pytest.mark.parametrize("d", MODULI)
@pytest.mark.parametrize("graph", [torus_grid_graph(2, 3), tetrahedron_graph(), genus2_bouquet_graph()],
                         ids=["torus2x3", "tetrahedron", "genus2_bouquet"])
def test_kitaev_operators_equal_the_checked_ones(d, graph):
    model = build_model(graph, d)
    n = model.n
    zero = (0,) * n
    for s, op in model.vertex_ops.items():
        a = tuple(int(e.head == s) - int(e.tail == s) for e in graph.edges)
        assert is_canonical(op) and op == PauliElement(d, n, 0, a, zero)
    for fi, walk in enumerate(graph.faces):
        b = [0] * n
        for eid, side in walk:
            b[graph.edge_index[eid]] += 1 if side == RIGHT else -1
        op = model.face_ops[fi]
        assert is_canonical(op) and op == PauliElement(d, n, 0, zero, tuple(b))


@st.composite
def canonical_rows(draw):
    """(d, m, rows): rows of canonical entries, about a third of them zero."""
    d = draw(st.sampled_from(MODULI))
    m = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=0, max_value=d - 1)
    rows = [tuple(0 for _ in range(m)) if draw(st.integers(0, 2)) == 0 else tuple(draw(entry) for _ in range(m))
            for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    return d, m, rows


@given(canonical_rows())
@settings(max_examples=100, deadline=None)
def test_of_reduced_equals_the_checked_submodule(drawn):
    d, m, rows = drawn
    trusted, checked = Submodule._of_reduced(d, m, rows), Submodule(d, m, rows)
    assert trusted.generators == checked.generators
    assert trusted.generator_matrix == checked.generator_matrix
    assert trusted.generator_matrix.shape == checked.generator_matrix.shape == (len(checked.generators), m)
    assert trusted.smith == checked.smith == smith_normal_form(ZdMatrix.from_rows(d, checked.generators, m))
    assert trusted == checked


# -- no outside input reaches a trusted constructor -----------------------

def trusted_uses(tree: ast.AST) -> list:
    """Line of every attribute in tree named as a trusted constructor."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in TRUSTED]


def violations(source: str, whole_module: bool) -> list:
    """Trusted uses anywhere (whole_module) or inside a reader function."""
    tree = ast.parse(source)
    if whole_module:
        return trusted_uses(tree)
    readers = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.endswith(READERS)]
    return [line for fn in readers for line in trusted_uses(fn)]


def library_sources():
    root = os.path.dirname(quditstab.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                yield name, fh.read()


def test_no_reader_calls_a_trusted_constructor():
    sources = dict(library_sources())
    assert trusted_uses(ast.parse(sources["pauli.py"])) and trusted_uses(ast.parse(sources["zmod.py"]))
    found = {name: violations(source, whole_module=name in ("cli.py", "oracle.py"))
             for name, source in sources.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source, whole_module",
    [
        ("x = PauliElement._reduced(d, n, 0, a, b)\n", True),
        ("from .zmod import Submodule\ns = Submodule._of_reduced(d, m, rows)\n", True),
        ("class P:\n    @classmethod\n    def from_json_dict(cls, obj):\n        return cls._reduced(*obj)\n", False),
        ("def shift_spec_from_json_dict(obj):\n    return ZdMatrix._reduced(2, (), 0)\n", False),
        ("class P:\n    @classmethod\n    def from_text(cls, d, text):\n        return P._reduced(d, 0, 0, (), ())\n", False),
    ],
)
def test_each_trusted_use_in_a_reader_is_a_violation(source, whole_module):
    assert violations(source, whole_module)


def test_trusted_use_outside_a_reader_is_no_violation():
    source = "def multiply(p, q):\n    return PauliElement._reduced(p.d, p.n, 0, p.a, p.b)\n"
    assert violations(source, whole_module=False) == []
