import ast
from pathlib import Path

import gradmorph


def test_every_exported_name_resolves():
    # a name deleted from the package but left in __all__ breaks star imports
    assert [name for name in gradmorph.__all__
            if not hasattr(gradmorph, name)] == []
    namespace = {}
    exec("from gradmorph import *", namespace)
    assert set(gradmorph.__all__) <= namespace.keys()


# Defined in src/gradmorph but named nowhere else in it: the public API that
# the README documents and only callers outside the package use (perfbench
# builds its inputs with emit_graph and random_matching), and the references
# the tests check the package against.
UNNAMED_IN_PACKAGE = [
    "Graph.components", "TransformationScript.num_ops",
    "TransformationScript.reversed_script", "WindowPlan.num_ops", "classify",
    "decompose", "emit_graph", "has_augmenting_path", "random_matching",
    "replay_reference",
]


def test_every_other_definition_is_named_in_the_package():
    # a function or method that nothing in src/ names is test-only surface:
    # it belongs beside its callers in tests/, or on the list above
    package = Path(gradmorph.__file__).resolve().parent
    trees = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
             if p.name != "__init__.py"]
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}

    def unnamed(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from unnamed(node.body, f"{prefix}{node.name}.")
            elif (isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("__") and node.name not in named):
                yield prefix + node.name

    found = sorted(name for tree in trees for name in unnamed(tree.body, ""))
    assert found == sorted(UNNAMED_IN_PACKAGE)
