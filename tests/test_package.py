import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gradmorph

SRC = Path(gradmorph.__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # a name deleted from the package but left in __all__ breaks star imports
    assert [name for name in gradmorph.__all__
            if not hasattr(gradmorph, name)] == []
    namespace = {}
    exec("from gradmorph import *", namespace)
    assert set(gradmorph.__all__) <= namespace.keys()


# Defined in src/gradmorph but named nowhere else in it, each kept for a
# caller outside the package:
# - max_phase_ops, to_json_obj, emit_graph and random_matching: perfbench
#   checks its replays' phases, writes its scripts and builds its inputs
#   with them, so they can go only with a change to the benchmark;
# - reversed_script: the documented inverse of a script, in the public API.
# The references that tests check the package against live in tests/.
UNNAMED_IN_PACKAGE = [
    "ReplayReport.max_phase_ops", "TransformationScript.reversed_script",
    "TransformationScript.to_json_obj", "emit_graph", "random_matching",
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


def _fresh(code: str) -> dict:
    """Runs code in a fresh interpreter on this source tree and returns the
    JSON object it prints last; code ends by printing one."""
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# ends each child's code: prints its `result` and the gradmorph submodules
# it loaded, without the package prefix
LOADED = ("import json, sys; print(json.dumps({'loaded': sorted("
          "m[len('gradmorph.'):] for m in sys.modules "
          "if m.startswith('gradmorph.')), **result}))")


def test_import_loads_no_submodule():
    assert _fresh("import gradmorph; result = {}\n" + LOADED) == {"loaded": []}


def test_oracles_load_only_the_graph():
    # the exact solvers share no code with the planners or the verifier
    assert _fresh("import gradmorph.oracles; result = {}\n" + LOADED) == \
        {"loaded": ["graph", "oracles"]}


def test_lazy_exports_are_the_submodules_objects():
    # the first access imports the owning submodule and caches its object
    out = _fresh("""
import importlib, gradmorph
result = {
    "different": [name for name, module in gradmorph._OWNER.items()
                  if getattr(gradmorph, name) is not getattr(
                      importlib.import_module("gradmorph." + module), name)],
    "uncached": [name for name in gradmorph.__all__
                 if name not in vars(gradmorph)],
    "missing_from_dir": sorted(set(gradmorph.__all__) - set(dir(gradmorph))),
}
""" + LOADED)
    assert out["different"] == out["uncached"] == out["missing_from_dir"] == []


def _cli_run(tmp_path, command: str, *options: str) -> dict:
    """Runs a CLI command on the 4-path, from (1,2) to (0,1) and (2,3), in a
    fresh interpreter; the command's other options follow."""
    args = [command]
    for name, text in (("graph", "e 0 1 1.0\ne 1 2 1.0\ne 2 3 1.0\n"),
                       ("from", "1 2\n"), ("to", "0 1\n2 3\n")):
        (tmp_path / f"{name}.txt").write_text(text)
        args.append(f"--{name}={tmp_path / name}.txt")
    return _fresh(f"from gradmorph.cli import main\n"
                  f"result = {{'rc': main({[*args, *options]!r})}}\n" + LOADED)


def test_cli_transform_loads_only_what_it_runs(tmp_path):
    out = _cli_run(tmp_path, "transform", "--problem", "mcm",
                   f"--out={tmp_path / 's.json'}")
    assert out["rc"] == 0
    assert not {"adversary", "bench", "dynforest", "gen", "msf", "mwm",
                "oracles", "sim", "wrapper"} & set(out["loaded"])


def test_cli_replay_loads_only_what_it_runs(tmp_path):
    ops = [{"op": op, "u": u, "v": u + 1, "w": 1.0}
           for op, u in (("remove", 1), ("add", 0), ("add", 2))]
    (tmp_path / "s.json").write_text(json.dumps(
        {"problem": "mcm", "epsilon": None, "budget": 3,
         "phases": [{"ops": ops}]}))
    out = _cli_run(tmp_path, "replay", f"--script={tmp_path / 's.json'}")
    assert out["rc"] == 0
    assert not {"adversary", "bench", "dynforest", "gen", "msf", "mwm",
                "oracles", "sim", "wrapper"} & set(out["loaded"])


def test_unweighted_wrapped_run_loads_neither_oracles_nor_mwm():
    out = _fresh("""
import random
from gradmorph.gen import random_update_stream
from gradmorph.graph import Graph
from gradmorph.sim import make_inner, run_simulation
from gradmorph.wrapper import WrappedMatching
g = Graph()
for v in range(300):
    g.ensure_vertex(v)
algo = WrappedMatching(g, make_inner("greedy", g), 0.1)
run_simulation(g, algo, random_update_stream(random.Random(3), 300, 3000))
result = {"windows": algo.windows}
""" + LOADED)
    assert out["windows"] > 0
    assert not {"oracles", "mwm"} & set(out["loaded"])
