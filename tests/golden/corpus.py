"""The golden-output corpus: CLI requests built from seeds, and the hash of each output.

Each entry is (name, command, input).  command is a CLI argv in which a token
"@key" stands for a file holding the text that text(input[key]) returns, so
the inputs live here as code and seeds, not as data files.  run(command,
input) calls cli.main in process and returns (exit code, sha256 of stdout
without its tool_version).  regenerate.py writes every entry with its hash to
manifest.json, and tests/test_golden.py checks each one against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import tempfile

from quditstab import cli
from quditstab.kitaev import ShiftPair, apply_twist, build_model, torus_grid_graph
from quditstab.pauli import PauliElement, multiply, order_matched_lift, power
from quditstab.stabilizer import StabilizerGroup, analyze

TORUS_LADDER = [(2, L) for L in (3, 4, 5)] + [(12, L) for L in (3, 4, 5)] + [(6, L) for L in (3, 4, 5, 6)]
TWIST_LS = (3, 4, 5)
# (prime factorisation of d, n) of the seeded composite groups; each seed gives
# each of them one kind of plan
COMPOSITE = [({2: 2, 3: 1}, 4), ({2: 3, 3: 2, 5: 1}, 6), ({2: 4, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1}, 4),
             ({2: 16}, 6), ({2: 64}, 4), ({2: 20, 3: 10, 5: 5}, 4), ({1000003: 1, 1000033: 1}, 4)]
KINDS = ("FREE", "SHIFTED_FREE", "GENERAL")
SEEDS = (1, 2, 3)
TWIST_SPEC = {"source": [0, 0], "pairs": [{"vertex": [0, 1], "a": 4, "b": 2,
                                           "path": [{"edge": ["h", 0, 0], "reverse": False}]}]}


def _divisors(factors: dict) -> list[int]:
    out = [1]
    for p, e in factors.items():
        out = [x * p**k for x in out for k in range(e + 1)]
    return sorted(out)


def _symplectic_basis(rng: random.Random, d: int, n: int):
    """(e_1..e_n, f_1..f_n) with the standard pairing delta_ij, by random transvections."""

    def omega(u, v):
        return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))

    basis = [tuple(int(i == k) for i in range(2 * n)) for k in range(2 * n)]
    for _ in range(2 * n + 2):
        v = [rng.randrange(d) for _ in range(2 * n)]
        basis = [tuple((x + omega(u, v) * y) % d for x, y in zip(u, v)) for u in basis]
    return basis[:n], basis[n:]


def composite_group(seed: int, factors: dict, n: int, kind: str) -> StabilizerGroup:
    """A commuting, scalar-free group built by the plan of kind, with random phases and one redundant word.

    Block r contributes a*e_r and b*f_r with d | a*b (a == d drops e_r): FREE
    plans take e_r alone, SHIFTED_FREE ones a shift (a, d/a), GENERAL ones a
    scaled e_r (s, d) and a twist (a, d/a * m) with m | a.
    """
    d = math.prod(p**e for p, e in factors.items())
    rng = random.Random(f"{seed}:{d}:{n}:{kind}")
    proper = _divisors(factors)[1:-1]
    if kind == "FREE":
        blocks = [(1, d)] * (n // 2)
    elif kind == "SHIFTED_FREE":
        a = rng.choice(proper)
        blocks = [(a, d // a), (1, d)]
    else:
        s = rng.choice(proper)
        a = rng.choice(proper)
        m = rng.choice([x for x in proper if x < a and a % x == 0] or [1])
        blocks = [(s, d), (a, d // a * m), (1, d)]
    es, fs = _symplectic_basis(rng, d, n)
    gens = []
    for r, (a, b) in enumerate(blocks):
        for scale, base in ((a, es[r]), (b, fs[r])):
            vec = tuple(scale * x % d for x in base)
            if any(vec):
                order = d // math.gcd(d, *vec)
                gens.append(multiply(PauliElement.scalar(d, n, 2 * (d // order) * rng.randrange(order)),
                                     order_matched_lift(d, vec)))
    word = PauliElement.identity(d, n)
    for g in gens:
        word = multiply(word, power(g, rng.randrange(d)))
    gens.append(word)
    rng.shuffle(gens)
    return StabilizerGroup(d, n, gens)


def _group(spec: dict) -> StabilizerGroup:
    kind = spec["kind"]
    if kind == "composite":
        factors = {int(p): e for p, e in spec["factors"].items()}
        return composite_group(spec["seed"], factors, spec["n"], spec["plan"])
    model = build_model(torus_grid_graph(spec["L"], spec.get("cols", spec["L"])), spec["d"])
    if kind == "torus":
        return model.stabilizer
    d = spec["d"]  # kind == "twist": two pairs (a, b) = (d, d/2) from the source (0, 0)
    return apply_twist(model, (0, 0), [ShiftPair((0, 1), d, d // 2, ((("h", 0, 0), False),)),
                                       ShiftPair((1, 0), d, d // 2, ((("v", 0, 0), False),))])


def build(spec: dict):
    """The JSON payload an input spec names."""
    if "literal" in spec:
        return spec["literal"]
    if spec["kind"] == "graph":
        return torus_grid_graph(spec["L"], spec["L"]).to_json_dict()
    group = _group(spec)
    payload = {"d": group.d, "n": group.n, "generators": [g.to_json_dict() for g in group.generators]}
    if spec.get("request") == "oracle":
        report = analyze(group).to_json_dict()
        report.update(spec.get("mutate", {}))
        payload["report"] = report
    return payload


def text(spec: dict) -> str:
    """The file an input spec names: build(spec) as JSON, or "@" in spec["in"] replaced by
    arrays nested spec["nest"] deep, which json.dump would refuse to write."""
    if "nest" in spec:
        return spec.get("in", "@").replace("@", "[" * spec["nest"] + "]" * spec["nest"])
    return json.dumps(build(spec))


def run(command: list, inputs: dict) -> tuple[int, str]:
    """Exit code and sha256 of the output of cli.main(command), with "@key" tokens bound to files."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for token in command:
            if token.startswith("@"):
                path = os.path.join(tmp, token[1:] + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text(inputs[token[1:]]))
                token = path
            argv.append(token)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    obj = json.loads(out.getvalue())
    if json.dumps(obj, sort_keys=True) + "\n" != out.getvalue():
        raise ValueError(f"{command}: output is not one canonical JSON line")
    obj.pop("tool_version", None)
    return code, hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _group_spec(kind: str, d: int, L: int) -> dict:
    return {"kind": kind, "d": d, "L": L}


def entries() -> list[tuple[str, list, dict]]:
    """Every (name, command, input) of the corpus."""
    out = []
    analyze_cmd = ["analyze", "--input", "@input"]
    for d, L in TORUS_LADDER:
        out.append((f"analyze/torus{L}x{L}_d{d}", analyze_cmd, {"input": _group_spec("torus", d, L)}))
    for L in TWIST_LS:
        out.append((f"analyze/torus{L}x{L}_d4_twist", analyze_cmd, {"input": _group_spec("twist", 4, L)}))
    for seed in SEEDS:
        for i, (factors, n) in enumerate(COMPOSITE):
            plan = KINDS[(i + seed) % 3]
            d = math.prod(p**e for p, e in factors.items())
            spec = {"kind": "composite", "seed": seed, "factors": {str(p): e for p, e in factors.items()},
                    "n": n, "plan": plan}
            name = f"{plan.lower()}_d{d}_n{n}_seed{seed}"
            out.append((f"analyze/{name}", analyze_cmd, {"input": spec}))
            if plan == "FREE":
                out.append((f"canonicalize/{name}", ["canonicalize", "--input", "@input"], {"input": spec}))
    out.append(("canonicalize/torus8x8_d6", ["canonicalize", "--input", "@input"],
                {"input": _group_spec("torus", 6, 8)}))
    graph = {"graph": {"kind": "graph", "L": 2}}
    kitaev = ["kitaev", "build", "--graph", "@graph", "--verify"]
    out.append(("kitaev_verify/torus2x2_d2", kitaev + ["--d", "2"], graph))
    out.append(("kitaev_verify/torus2x2_d4_twist", kitaev + ["--d", "4", "--twist", "@twist"],
                {**graph, "twist": {"literal": TWIST_SPEC}}))
    out.append(("kitaev_charges/torus2x2_d4", ["kitaev", "build", "--graph", "@graph", "--d", "4",
                                               "--character", "@character"],
                {**graph, "character": {"literal": {"values": [1, 3, 0, 0, 0, 0, 0, 0]}}}))
    verify = ["oracle", "verify", "--input", "@input"]
    for name, spec in (("torus2x3_d2", {"kind": "torus", "d": 2, "L": 2, "cols": 3}),
                       ("torus2x2_d3", _group_spec("torus", 3, 2)),
                       ("torus2x2_d4_twist", _group_spec("twist", 4, 2))):
        out.append((f"oracle_verify/{name}", verify, {"input": {**spec, "request": "oracle"}}))
    out.append(("oracle_verify/torus2x2_d3_wrong_dimension", verify,
                {"input": {**_group_spec("torus", 3, 2), "request": "oracle", "mutate": {"dim_protected": 3}}}))
    out.append(("error/too_large", verify + ["--bound", "8"],
                {"input": {**_group_spec("torus", 3, 2), "request": "oracle"}}))
    for name, command, literal in _ERRORS:
        inputs = {"input": {"literal": literal}} if "@input" in command else {}
        if "@graph" in command:
            inputs.update(graph)
        out.append((f"error/{name}", command, inputs))
    out.append(("error/deeply_nested_request", ["analyze", "--input", "@input"], {"input": {"nest": 100_000}}))
    out.append(("error/deeply_nested_vertex", ["kitaev", "build", "--graph", "@input", "--d", "2"],
                {"input": {"nest": 900, "in": '{"vertices": [@], "edges": [], "faces": []}'}}))
    return out


_ERRORS = [
    ("not_abelian", ["analyze", "--input", "@input"],
     {"d": 2, "n": 1, "generators": [{"a": [1], "b": [0]}, {"a": [0], "b": [1]}]}),
    ("contains_scalar", ["analyze", "--input", "@input"],
     {"d": 4, "n": 1, "generators": [{"phase": 1, "a": [0], "b": [0]}]}),
    ("wrong_length", ["analyze", "--input", "@input"], {"d": 3, "n": 2, "generators": [{"a": [1], "b": [0]}]}),
    ("missing_d", ["analyze", "--input", "@input"], {"n": 1, "generators": []}),
    ("wrong_report", ["oracle", "verify", "--input", "@input"], {"d": 3, "n": 1, "generators": [], "report": {}}),
    ("generator_off_the_request", ["analyze", "--input", "@input"],
     {"d": 2, "n": 1, "generators": [{"a": [0], "b": [1], "n": 2}]}),
    ("request_not_an_object", ["analyze", "--input", "@input"], []),
    ("report_not_an_object", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": []}),
    ("logical_pair_not_an_object", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": {"logical_operators": [5]}}),
    ("css_not_an_object", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": {"css": [1]}}),
    ("character_not_an_object", ["kitaev", "build", "--graph", "@graph", "--d", "4", "--character", "@input"], [3]),
    ("twist_pair_not_an_object", ["kitaev", "build", "--graph", "@graph", "--d", "4", "--twist", "@input"],
     {"source": [0, 0], "pairs": [7]}),
    ("graph_not_an_object", ["kitaev", "build", "--graph", "@input", "--d", "2"], [1]),
    ("reverse_not_a_boolean", ["kitaev", "build", "--graph", "@graph", "--d", "4", "--twist", "@input"],
     {"source": [0, 0], "pairs": [{"vertex": [0, 1], "a": 4, "b": 2,
                                   "path": [{"edge": ["h", 0, 0], "reverse": "false"}]}]}),
    ("shift_spec_without_pairs", ["kitaev", "build", "--graph", "@graph", "--d", "4", "--twist", "@input"],
     {"source": [0, 0]}),
    ("edge_not_an_object", ["kitaev", "build", "--graph", "@input", "--d", "2"],
     {"vertices": [0], "edges": [5], "faces": []}),
    ("report_off_the_request_dimensions", ["oracle", "verify", "--input", "@input"],
     {"d": 2, "n": 1, "generators": [], "report": {"d": 3, "n": 7}}),
    ("twist_exponent_not_an_integer", ["kitaev", "build", "--graph", "@graph", "--d", "4", "--twist", "@input"],
     {**TWIST_SPEC, "pairs": [TWIST_SPEC["pairs"][0], {**TWIST_SPEC["pairs"][0], "a": 4.5}]}),
    ("logical_divisor_not_an_integer", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": {"logical_operators": [{"divisor": 1.5}]}}),
    ("classification_not_a_number", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": {"classification": "FREE(x)"}}),
    ("classification_unclosed", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": {"classification": "FREE(3"}}),
    ("classification_unknown", ["oracle", "verify", "--input", "@input"],
     {"d": 3, "n": 1, "generators": [], "report": {"classification": "BOGUS"}}),
    ("kitaev_d_0", ["kitaev", "build", "--graph", "@graph", "--d", "0"], None),
    ("kitaev_d_negative", ["kitaev", "build", "--graph", "@graph", "--d", "-3"], None),
]
