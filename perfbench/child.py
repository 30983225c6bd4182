"""One repetition of a benchmark workload, run in a fresh interpreter.

The parent (run.py) starts this script once per repetition with a JSON spec
as its only argument.  The script imports `groupmix.cli` and calls
`cli.main(argv)`, so the repetition runs exactly the calls the `groupmix`
command line makes.  It takes two timestamps: when the workload's first run
function is entered (set-up is over: irreps and input are ready) and when
`main` returns (the result has been written).  Times are CLOCK_MONOTONIC,
which the parent shares, so set-up is measured from the parent's spawn.

Spec keys:
  argv        groupmix command-line arguments
  mark        "module.attr" whose first call ends set-up
  steps       "module.attr" names whose calls are timed one by one
  setup_only  stop at the mark (set-up timing only)
  trace       record a span around every public groupmix function call
  extra       after main: "transforms" (one product forward and inverse on the
              box input) or "low_part" (one repair.low_part on the input)
  result      path of the JSON result this script writes
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import resource
import sys
import time

LAYERS = ("cli", "groups", "irreps", "nof", "fourier", "uniformity", "boost", "repair")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SetupDone(Exception):
    """Raised at the mark in set-up-only mode; never caught by groupmix."""


def _saved_bytes(args, kwargs, ret):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else None


def _forwards(args, kwargs, ret):
    # convolve_fourier transforms its second operand only when it differs
    p, q = args[0], args[1]
    return {"forwards": 1 if q is p or q.values is p.values else 2}


# per-span counts read from a call's arguments or result, after its end time
SPAN_ATTRS = {
    "irreps.save_irreps": _saved_bytes,
    "nof.exact_s": lambda args, kwargs, ret: {"tuples": int(ret.total)},
    "fourier.convolve_fourier": _forwards,
}


class Tracer:
    """In-memory spans: [name, parent index, start, end, rss before, rss after, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, maxrss_kb(), 0, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[2] = clock()
        try:
            yield rec
        finally:
            rec[3] = clock()
            rec[5] = maxrss_kb()
            self.stack.pop()

    def wrap(self, name: str, func):
        attrs = SPAN_ATTRS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            with self.span(name) as rec:
                ret = func(*args, **kwargs)
            if attrs is not None:
                rec[6] = attrs(args, kwargs, ret)
            return ret

        return traced

    def instrument(self):
        """Replace every public groupmix function, wherever a layer module
        (or the package) binds it, with one traced wrapper."""
        import groupmix

        owners = {f"groupmix.{layer}" for layer in LAYERS}
        modules = [groupmix] + [sys.modules[name] for name in sorted(owners)]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in owners:
                    continue
                if obj.__name__.startswith("_"):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrapped[obj])


def _patch(target: str, make):
    mod_name, attr = target.rsplit(".", 1)
    mod = sys.modules[f"groupmix.{mod_name}"]
    setattr(mod, attr, make(getattr(mod, attr)))


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec.get("trace") else None

    if tracer is not None:
        with tracer.span("cli.import"):
            import groupmix.cli as cli
        tracer.instrument()
    else:
        import groupmix.cli as cli

    marked: dict = {}
    steps: list[float] = []

    def make_mark(func):
        @functools.wraps(func)
        def mark(*args, **kwargs):
            if not marked:
                marked["t"] = clock()
                marked["args"] = args
                if spec.get("setup_only"):
                    raise SetupDone
            return func(*args, **kwargs)

        return mark

    def make_step(func):
        @functools.wraps(func)
        def step(*args, **kwargs):
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                steps.append(clock() - t0)

        return step

    for target in spec.get("steps", []):
        _patch(target, make_step)
    _patch(spec["mark"], make_mark)

    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is not None:
                with tracer.span("run.main"):
                    rc = cli.main(spec["argv"])
            else:
                rc = cli.main(spec["argv"])
    except SetupDone:
        rc = 0
    out = {"t_end": clock(), "maxrss_kb": maxrss_kb(), "rc": rc, "t_mark": marked.get("t"),
           "steps": steps, "stdout": stdout.getvalue()}

    if tracer is not None:
        if spec.get("extra") and rc == 0:
            _extra(cli, tracer, spec, marked.get("args", ()))
        out["spans"] = tracer.spans
    out["env"] = _environment()
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


def _extra(cli, tracer: Tracer, spec: dict, mark_args):
    """Layer timings the CLI path cannot expose through public calls,
    made after the timed part, on the workload's own input."""
    # the package re-exports functions named like some modules (repair)
    fourier, groups, irreps, nof, repair = (
        sys.modules[f"groupmix.{name}"] for name in ("fourier", "groups", "irreps", "nof", "repair")
    )
    tracer.enabled = False
    cfg = cli.build_run_config(cli.make_parser().parse_args(spec["argv"]))
    g = groups.build_group(groups.parse_group_spec(cfg.group))
    s = irreps.get_irreps(g, tol=cfg.tol, seed=0, cache_dir=cli.default_cache_dir())
    if spec["extra"] == "transforms":
        parties = cfg.parties if spec["argv"][1] == "nof" else cfg.m.bit_length() - 1
        p = nof.box_to_dist(nof.exact_s(g, parties))
    tracer.enabled = True
    with tracer.span("run.extra"):
        if spec["extra"] == "transforms":
            fd = fourier.product_fourier_forward(p.values, p.space, s)
            del p
            fourier.product_fourier_inverse(fd)
        else:
            repair.low_part(mark_args[0], cfg.k, s)


def _environment() -> dict:
    import numpy as np

    env = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env.update(blas_name=blas.get("name"), blas_version=blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        env.update(blas_name=None, blas_version=None)
    return env


if __name__ == "__main__":
    sys.exit(main())
