"""Guard for the one tolerance rule: every float comparison slack in the
package comes from graph.slack, so no other module may spell a tolerance
constant or take a tolerance parameter."""

import ast
import re
from pathlib import Path

import gradmorph

PACKAGE = Path(gradmorph.__file__).resolve().parent
TOLERANCE_LITERAL = re.compile(r"[0-9]e-[0-9]+", re.IGNORECASE)


def _sources():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "graph.py")


def test_only_graph_spells_a_tolerance_literal():
    assert TOLERANCE_LITERAL.search((PACKAGE / "graph.py").read_text())
    sources = _sources()
    assert sources
    offenders = [f"{p.name}:{i}: {line.strip()}"
                 for p in sources
                 for i, line in enumerate(p.read_text().splitlines(), start=1)
                 if TOLERANCE_LITERAL.search(line)]
    assert offenders == []


def test_no_function_takes_a_tolerance_parameter():
    offenders = []
    for p in _sources():
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "tolerance" in names:
                    offenders.append(f"{p.name}:{node.lineno}")
    assert offenders == []
