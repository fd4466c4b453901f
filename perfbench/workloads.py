"""The three workloads: a timed pass over seeded inputs, then checks of every result.

A pass records one `Op` per library call with its wall time, outcome and raw
result.  Checking happens after the pass, outside its timing (and outside the
tracer), against answers known from the construction of the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import cases as C

ORACLE_CHECKS = ("dimension", "logical_action", "relations", "irreducibility_count", "transitivity")


class DeadlineExceeded(BaseException):
    """Raised inside a library call that ran past its deadline.

    A BaseException, so that no `except Exception` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    case: str
    kind: str  # build | analyze | membership | canonicalize | verify | cli
    seconds: float
    status: str  # ok | deadline | error | wrong
    result: object = None
    reason: str = ""
    digest: object = None
    probe: bool = False  # a known-defect probe, outside attempted/failed


@dataclass
class Pass:
    seconds: float = 0.0
    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (op, check function)
    skipped: list = field(default_factory=list)  # "case:check" oracle checks missing

    def run(self, case: str, kind: str, deadline_s: float, fn: Callable, probe=False):
        t0 = time.perf_counter()
        try:
            with deadline(deadline_s):
                result = fn()
            status, reason = "ok", ""
        except DeadlineExceeded:
            result, status, reason = None, "deadline", f"no result within {deadline_s:g} s"
        except Exception as exc:  # a library failure is a counted, named result
            result, status, reason = None, "error", f"{type(exc).__name__}: {exc}"
        op = Op(case, kind, time.perf_counter() - t0, status, result, reason, probe=probe)
        self.ops.append(op)
        return op

    def expect(self, op: Op, check: Callable) -> None:
        """check(result) returns (digest, problem or None); runs after the pass."""
        self.checks.append((op, check))

    def verify(self) -> None:
        for op, check in self.checks:
            if op.status != "ok":
                continue
            try:
                op.digest, problem = check(op.result)
            except Exception as exc:  # a check that cannot run marks the result wrong
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                op.status, op.reason = "wrong", problem
        self.checks.clear()

    def outcomes(self) -> list:
        return [(op.case, op.kind, op.status, op.digest) for op in self.ops]

    def times(self, kind: str) -> list:
        return [op.seconds for op in self.ops if op.kind == kind and not op.probe]

    def figures(self) -> dict:
        """Time per kind of operation, for the kinds this pass ran."""
        out = {}
        for kind in ("build", "analyze", "canonicalize", "verify"):
            if self.times(kind):
                out[f"{kind}_s"] = {"value": math.fsum(self.times(kind)), "unit": "s"}
        queries = self.times("membership")
        if queries:
            out["membership_qps"] = {"value": len(queries) / math.fsum(queries), "unit": "1/s"}
        out["fail_frac"] = {"value": sum(op.status != "ok" for op in self.ops) / len(self.ops),
                            "unit": "ratio"}
        return out


# -- result checks -------------------------------------------------------

def _report_problem(report, d: int, n: int, gens, pauli) -> Optional[str]:
    """Identities every report must satisfy, whatever the group."""
    if report.dim_protected * report.cardinality != d**n:
        return "dim_protected * cardinality != d^n"
    chain = report.canonical_chain
    if any(b % a for a, b in zip(chain, chain[1:])):
        return f"canonical chain {chain} is not a divisibility chain"
    if math.prod(chain) != math.prod(report.quotient_divisors):
        return "canonical chain and quotient divisors have different products"
    if len(report.logical_operators) != len(report.quotient_divisors):
        return "one logical pair per quotient divisor expected"
    for pair in report.logical_operators:
        for op in (pair.z_like, pair.x_like):
            if any(pauli.commutation_phase(op, g) for g in gens):
                return f"logical operator {op.to_text()} does not normalise the group"
        if pauli.commutation_phase(pair.z_like, pair.x_like) != (d // pair.divisor) % d:
            return f"logical pair of divisor {pair.divisor} has the wrong commutation phase"
    return None


def _check_report(expected: dict, gens, lib):
    def check(report):
        digest = report.to_json_dict()
        problem = _report_problem(report, report.d, report.n, gens, lib.pauli)
        for key, want in expected.items():
            got = report.kind if key == "kind" else getattr(report, key)
            if problem is None and got != want:
                problem = f"{key} {got!r} != expected {want!r}"
        return digest, problem
    return check


def _check_membership(want: bool):
    return lambda got: (got, None if got == want else f"membership {got} != expected {want}")


def _check_canonical(k: int, d: int):
    """The images lie in <Z_1..Z_k> and generate it."""
    def check(images):
        digest = [p.to_json_dict() for p in images]
        for p in images:
            if p.phase or any(p.a) or any(p.b[k:]):
                return digest, f"image {p.to_text()} is not in <Z_1..Z_{k}>"
        if not spans_all([p.b[:k] for p in images], k, d):
            return digest, f"images do not generate <Z_1..Z_{k}>"
        return digest, None
    return check


def spans_all(rows, k: int, d: int) -> bool:
    """Do the rows generate (Z/d)^k?  Euclidean row reduction mod d."""
    rows = [[x % d for x in r] for r in rows]
    for col in range(k):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: r[col])
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(col, k):
                    r[j] = (r[j] - q * pivot[j]) % d
            live = [r for r in live if r[col]]
        if not live or math.gcd(live[0][col], d) != 1:
            return False
        rows = [r for r in rows if r is not live[0]]
    return True


def _check_verdict(case_name: str, skipped: list):
    def check(verdict):
        digest = verdict.to_json_dict()
        skipped.extend(f"{case_name}:{c}" for c in ORACLE_CHECKS if c not in verdict.checks)
        failed = [c for c, ok in verdict.checks.items() if not ok]
        if failed or not verdict.passed:
            return digest, f"oracle verdict fail: {failed} {verdict.details}"
        return digest, None
    return check


def _check_cli(expected: Callable):
    def check(out):
        code, text = out
        if code != 0:
            return text, f"cli exit code {code}"
        got = json.loads(text)
        want = json.loads(json.dumps(expected()))
        return got, None if got == want else "cli JSON differs from the library's to_json_dict"
    return check


def cli_call(lib, argv: list, stdin_text: str):
    """cli.main in-process, with stdin and stdout replaced; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def wrapped(lib, payload: dict) -> dict:
    """What the CLI prints around a payload: tool version and conventions."""
    return {"tool_version": lib.package.__version__, "conventions": lib.cli.CONVENTIONS, **payload}


# -- shared per-group operations ----------------------------------------

def _torus_group(lib, case: C.TorusCase):
    model = lib.kitaev.build_model(case.graph, case.d)
    if case.twist is None:
        return model.stabilizer
    source, pairs = case.twist
    return lib.kitaev.apply_twist(model, source, pairs)


def _canonical_images(lib, group):
    conj = lib.stabilizer.canonical_conjugation(group)
    return [conj.apply(g) for g in group.generators]


def _group_ops(lib, p: Pass, case: C.GroupCase, group):
    for q, want in zip(case.queries, case.expected):
        op = p.run(case.name, "membership", case.deadline_s,
                   lambda q=q: lib.stabilizer.membership(group, q))
        p.expect(op, _check_membership(want))
    if case.kind == "FREE":
        op = p.run(case.name, "canonicalize", case.deadline_s, lambda: _canonical_images(lib, group))
        p.expect(op, _check_canonical(case.rank, case.d))


def _torus_expectation(case: C.TorusCase) -> dict:
    expected = {"dim_protected": case.dim, "cardinality": case.d**case.n // case.dim}
    if case.twist is None:
        expected.update(kind="FREE", quotient_divisors=(case.d, case.d),
                        rank=2 * case.rows * case.cols - 2)
    else:
        expected.update(kind="GENERAL", rank=None)
    return expected


def _torus_build_analyze(lib, p: Pass, case: C.TorusCase):
    """(group, analyze op), or None when the build failed."""
    build = p.run(case.name, "build", case.deadline_s, lambda: _torus_group(lib, case))
    if build.status != "ok":
        return None
    group = build.result
    p.expect(build, lambda g: (g.cardinality, None if g.n == case.n else "wrong qudit count"))
    op = p.run(case.name, "analyze", case.deadline_s, lambda: lib.stabilizer.analyze(group))
    p.expect(op, _check_report(_torus_expectation(case), group.generators, lib))
    return group, op


# -- workloads ----------------------------------------------------------

class TorusLadder:
    name = "torus_ladder"
    why = ("L x L torus Kitaev models at d=2, 6, 12 plus two-pair d=4 twists: "
           "time goes to zmod Smith forms and symplectic pairing as n grows")

    def setup(self, lib, rng):
        self.cases = C.torus_ladder_cases(lib)
        self.cli_graph = json.dumps(self.cases[0].graph.to_json_dict())

    def run(self, lib, p: Pass):
        analyzed = [_torus_build_analyze(lib, p, case) for case in self.cases]
        first, graph = self.cases[0], self.cli_graph
        op = p.run("cli_kitaev_build", "cli", 60.0, lambda: cli_call(
            lib, ["kitaev", "build", "--graph", "-", "--d", str(first.d)], graph))

        def expected():  # the pass's own report of the same graph
            g = first.graph
            return wrapped(lib, {"genus": g.genus, "euler": g.euler_characteristic, "n": first.n,
                                 "edge_order": [str(e.id) for e in g.edges],
                                 "report": analyzed[0][1].digest})
        p.expect(op, _check_cli(expected))

    def details(self, p: Pass) -> dict:
        by_name = {op.case: op.seconds for op in p.ops if op.kind == "analyze"}
        d6 = [(c.n, by_name[c.name]) for c in self.cases
              if c.d == 6 and c.twist is None and c.name in by_name]
        out = {"analyze_exp_n": {"value": log_slope(d6), "unit": "slope"}}
        for c in self.cases:
            if c.d == 6 and c.rows == 6 and c.twist is None and c.name in by_name:
                out["analyze_n72_s"] = {"value": by_name[c.name], "unit": "s"}
        return out


class CompositeGroups:
    name = "composite_groups"
    why = ("seeded groups at composite d up to 2^64 with membership queries: "
           "per-call overhead, big-integer pauli arithmetic, factoring, canonicalisation")

    def setup(self, lib, rng):
        self.cases = C.group_cases(lib, rng)
        self.probe = C.probe_case(lib)
        first = self.cases[0]
        self.cli_request = json.dumps({"d": first.d, "n": first.n,
                                       "generators": [g.to_json_dict() for g in first.gens]})

    def run(self, lib, p: Pass):
        reports = {}  # case name -> analyze op
        for case in self.cases:
            build = p.run(case.name, "build", case.deadline_s,
                          lambda c=case: lib.stabilizer.validate(c.d, c.n, c.gens))
            if build.status != "ok":
                continue
            group = build.result
            p.expect(build, lambda g, c=case: (
                g.cardinality, None if g.cardinality == c.cardinality else "wrong cardinality"))
            op = p.run(case.name, "analyze", case.deadline_s, lambda: lib.stabilizer.analyze(group))
            reports[case.name] = op
            p.expect(op, _check_report(_group_expectation(case), case.gens, lib))
            _group_ops(lib, p, case, group)
        probe = self.probe
        op = p.run(probe.name, "analyze", probe.deadline_s, probe=True, fn=lambda: lib.stabilizer.analyze(
            lib.stabilizer.validate(probe.d, probe.n, probe.gens)))
        p.expect(op, _check_report(_group_expectation(probe), probe.gens, lib))
        first = self.cases[0].name
        op = p.run("cli_analyze", "cli", 60.0,
                   lambda: cli_call(lib, ["analyze", "--input", "-"], self.cli_request))
        p.expect(op, _check_cli(lambda: wrapped(lib, reports[first].digest)))

    def details(self, p: Pass) -> dict:
        per_n = {}
        names = {c.name: c.n for c in self.cases}
        for op in p.ops:
            if op.kind == "analyze" and op.case in names:
                per_n[names[op.case]] = per_n.get(names[op.case], 0.0) + op.seconds
        return {"analyze_exp_n": {"value": log_slope(sorted(per_n.items())), "unit": "slope"}}


def _group_expectation(case: C.GroupCase) -> dict:
    out = {"dim_protected": case.dim, "cardinality": case.cardinality, "kind": case.kind,
           "rank": case.rank, "canonical_chain": case.chain}
    if case.divisors is not None:
        out["quotient_divisors"] = case.divisors
    return out


class OracleVerify:
    name = "oracle_verify"
    why = ("brute-force verify_report on 2^12, 3^8 and 2^16 basis states: the oracle's "
           "scans do the work, so engine changes should not move it")

    def setup(self, lib, rng):
        """Groups and reports come from build and analyze here, checked like any pass."""
        self.cases = C.oracle_cases(lib)
        tiny = C.torus_case(lib, 2, 2, 2)
        built = Pass()
        self.analyzed = [_torus_build_analyze(lib, built, c) for c in self.cases + [tiny]]
        built.verify()
        bad = [f"{op.case} {op.kind}: {op.reason}" for op in built.ops if op.status != "ok"]
        if bad:
            raise RuntimeError(f"oracle_verify set-up failed: {bad}")
        group, op = self.analyzed[-1]
        self.cli_request = json.dumps({**group.to_json_dict(), "report": op.digest})

    def run(self, lib, p: Pass):
        for case, (group, analyzed) in zip(self.cases, self.analyzed):
            op = p.run(case.name, "verify", case.deadline_s,
                       lambda: lib.oracle.verify_report(group, analyzed.result))
            p.expect(op, _check_verdict(case.name, p.skipped))
        group, analyzed = self.analyzed[-1]
        op = p.run("cli_oracle_verify", "cli", 60.0,
                   lambda: cli_call(lib, ["oracle", "verify", "--input", "-"], self.cli_request))
        p.expect(op, _check_cli(lambda: wrapped(
            lib, lib.oracle.verify_report(group, analyzed.result).to_json_dict())))

    def details(self, p: Pass) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (TorusLadder, CompositeGroups, OracleVerify)}


def log_slope(points) -> float:
    """Least-squares slope of log t against log n."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def make_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")
