"""The benchmark's hooks name groupmix functions that exist.

perfbench patches the function named by each workload's `mark` and `steps`,
and its child process calls further functions by module attribute.  A name
that no longer resolves does not fail a benchmark run: an unpatched step
turns `step_s` into `run_s` without an error.  These tests read the names
from perfbench's own files, which they leave unchanged.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    # run.py prepends its own directory to sys.path and imports its siblings
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    try:
        spec.loader.exec_module(mod)
    finally:
        for added in set(sys.modules) - before:
            del sys.modules[added]
    return mod


def _resolve(name: str):
    mod_name, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"groupmix.{mod_name}"), attr, None)


def test_workload_mark_and_steps_name_groupmix_functions(monkeypatch):
    run = _load(monkeypatch, "run")
    names = {name for w in run.WORKLOADS.values() for name in (w.mark, *w.steps)}
    assert {
        "boost.boost_pipeline",
        "boost.convolve",
        "nof.verify_s_uniformity",
        "nof.convolve",
        "cli.run_repair",
        "cli.verify_repair",
        "cli.get_irreps",
    } <= names
    missing = sorted(name for name in names if not inspect.isfunction(_resolve(name)))
    assert not missing, f"perfbench workloads name missing groupmix functions: {missing}"


def test_child_calls_name_groupmix_functions(monkeypatch):
    child = _load(monkeypatch, "child")
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    extra = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_extra")
    called = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(extra)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in child.LAYERS
    }
    assert {
        "fourier.product_fourier_forward",
        "fourier.product_fourier_inverse",
        "nof.exact_s",
        "nof.box_to_dist",
        "repair.low_part",
        "irreps.get_irreps",
        "cli.build_run_config",
        "groups.build_group",
    } <= called
    names = called | set(child.SPAN_ATTRS)
    missing = sorted(name for name in names if not callable(_resolve(name)))
    assert not missing, f"perfbench's child calls missing groupmix names: {missing}"


def test_traced_pipelines_keep_span_readers_working(monkeypatch, sl2_3, irreps_cache):
    """A traced benchmark run wraps every public groupmix function, and the
    child's SPAN_ATTRS readers take their counts from the wrapped calls'
    arguments; a reader that raised would abort the run."""
    child = _load(monkeypatch, "child")
    import groupmix
    import groupmix.cli  # noqa: F401  (instrument() reads every layer module)

    for mod in [groupmix] + [sys.modules[f"groupmix.{layer}"] for layer in child.LAYERS]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                monkeypatch.setattr(mod, attr, obj)  # restored after the test
    s = irreps_cache(sl2_3)
    tracer = child.Tracer()
    tracer.instrument()
    nof, boost = sys.modules["groupmix.nof"], sys.modules["groupmix.boost"]
    box = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    nof.advantage_curve(box, 4, s)
    boost.boost_pipeline(box, "fresh-copy", 3, 0.0, s)
    boost.boost_pipeline(box, "self-square", 1, 0.0, s)
    spans = tracer.spans

    # one convolve span per step; the fresh-copy loops never transform two Dists
    loops = [i for i, sp in enumerate(spans) if sp[1] == -1 and sp[0].endswith(("_curve", "_pipeline"))]
    steps = [[sp[0] for sp in spans if sp[1] == i].count("fourier.convolve") for i in loops]
    assert steps == [3, 3, 1]
    attrs = [(sp[0], sp[6]) for sp in spans if sp[6] is not None]
    assert attrs == [("nof.exact_s", {"tuples": 24**4}), ("fourier.convolve_fourier", {"forwards": 1})]



def test_layer_totals_name_groupmix_functions():
    # a renamed function would read as 0 s in its layer metric, not as an error
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    totalled = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("total", "outer")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).split(".")[0] in ("irreps", "groups")
    }
    assert {"irreps.check_irrep_set", "irreps.load_irreps", "groups.build_group"} <= totalled
    missing = sorted(name for name in totalled if not inspect.isfunction(_resolve(name)))
    assert not missing, f"perfbench/layers.py totals missing groupmix functions: {missing}"
