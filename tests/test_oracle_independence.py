"""The oracle stays independent of the engine it checks, read from oracle.py's imports by ast.

It may not import the linear algebra, symplectic or Heisenberg layers, and
of the stabiliser module it takes only the group, the report and membership.
"""

import ast

import pytest

import quditstab.oracle

ENGINE = (".zmod", ".symplectic", ".heisenberg")
FROM_STABILIZER = {"StabilizerGroup", "StabilizerReport", "membership"}


def imports(source: str):
    """(module, name) of every import in source, package modules written as ".module"."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "." + module
            elif module == "quditstab" or module.startswith("quditstab."):
                module = "." + module[len("quditstab."):]
            for alias in node.names:
                yield ("." + alias.name, "*") if module == "." else (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("quditstab."):
                    yield alias.name[len("quditstab"):], "*"


def violations(source: str) -> list:
    return [
        (module, name)
        for module, name in imports(source)
        if module.startswith(ENGINE) or (module == ".stabilizer" and name not in FROM_STABILIZER)
    ]


def test_oracle_imports_nothing_of_the_engine_but_three_names():
    with open(quditstab.oracle.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert (".stabilizer", "membership") in imports(source)  # relative imports are read
    assert violations(source) == []


@pytest.mark.parametrize(
    "line",
    [
        "from .zmod import Submodule",
        "from .symplectic import SymplecticSpace",
        "from .heisenberg import lift_symplectic",
        "from . import zmod",
        "from quditstab import heisenberg",
        "from quditstab.zmod import smith_normal_form",
        "import quditstab.symplectic",
        "from .stabilizer import characters",
        "from .stabilizer import StabilizerGroup, analyze",
        "from quditstab.stabilizer import characters",
    ],
)
def test_each_engine_import_is_a_violation(line):
    assert violations(line)


def test_the_allowed_imports_are_no_violation():
    source = "from .stabilizer import StabilizerGroup, StabilizerReport, membership\nfrom .pauli import power\n"
    assert violations(source) == []
