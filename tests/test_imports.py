"""Import-time footprint of the package, and the names that use it."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import conic_walks
from conic_walks import simulation


def imported_by_the_package(*packages):
    """The modules of ``packages`` that ``import conic_walks`` loads in a
    fresh interpreter."""
    src = str(Path(conic_walks.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, conic_walks; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert imported_by_the_package("scipy") == "[]"


def test_import_loads_no_process_pool():
    # only a call that opens a pool imports it, so a one-worker run never
    # pays for multiprocessing
    assert imported_by_the_package("multiprocessing", "concurrent") == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in conic_walks.__all__ if not hasattr(conic_walks, name)]
    assert missing == []


def _resolve(module, name):
    """``module.name``, importing it if it is a submodule; None if it is neither."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


def _package_references(path):
    """(line, dotted name, whether it resolves) for every name the file
    imports from the package and every attribute it reads on a package module
    it imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "conic_walks":
                    if alias.asname:
                        modules[alias.asname] = importlib.import_module(alias.name)
                    else:
                        modules["conic_walks"] = conic_walks
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "conic_walks"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                value = _resolve(source, alias.name)
                refs.append((node.lineno, f"{node.module}.{alias.name}", value is not None))
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            refs.append((node.lineno, f"{module.__name__}.{node.attr}",
                         hasattr(module, node.attr)))
    return refs


def test_no_source_file_touches_a_bit_generator_state():
    # numpy documents a bit generator's state dict for saving and restoring
    # it, not its layout (NEP 19): the package reaches every stream through
    # a Philox key and counter only
    touched = []
    for path in sorted(Path(conic_walks.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "state"
                    or isinstance(node, ast.Constant) and node.value in ("state", "buffer_pos")):
                touched.append((path.name, node.lineno))
    assert touched == []


def test_the_simulator_reads_geometry_through_the_sign_record():
    # every verdict of a measurement reads one sign record per batch, so
    # the simulator reaches no private of geometry but that record
    path = Path(simulation.__file__)
    reached = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "geometry"):
            reached.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry"):
            reached += [(alias.name, node.lineno) for alias in node.names]
    assert [(name, line) for name, line in reached
            if name.startswith("_") and name != "_SignRecord"] == []
    assert "_SignRecord" in {name for name, _ in reached}


def test_benchmark_harness_names_resolve():
    # the traced benchmark imports perfbench/layers.py, which no other test
    # runs, so a package name it uses that moved or went must fail here
    harness = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
    refs = [(path.name, line, name, ok)
            for path in harness for line, name, ok in _package_references(path)]
    assert len(refs) > 50
    assert [(file, line, name) for file, line, name, ok in refs if not ok] == []


def test_traced_geometry_replay_runs_clean(monkeypatch):
    # only a traced benchmark run replays the gate and full-cone pairs through
    # the public geometry; import its modules as its set-up child does, so a
    # changed signature or contract there fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    layers, spans, workloads = (importlib.import_module(m) for m in ("layers", "spans", "workloads"))
    replay = layers.Replay(spans.NullRecorder())
    pairs = workloads.gate_pairs(1) + workloads.fullcone_pairs(1)
    for pair in pairs:
        dist = simulation.DistributionSpec(pair.family, pair.d)
        rng = np.random.Generator(np.random.Philox(key=[pair.seed & workloads._MASK64, 7]))
        for _ in range(16):
            replay.sample(pair.query, dist, rng)
    assert len(pairs) == 54
    assert replay.errors == 0
