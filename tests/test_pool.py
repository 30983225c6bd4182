"""The job pool of `groupmix.fourier`: outputs do not depend on the worker count, errors in
pooled jobs reach the caller, and small inputs start no thread."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import groupmix
from groupmix import fourier as fx
from groupmix import nof
from groupmix.groups import ProductGroup
from groupmix.irreps import get_irreps
from groupmix.repair import repair, verify_repair
from groupmix.uniformity import eps_k_uniform

SEED = 2024


@pytest.fixture
def pool(monkeypatch):
    """workers(w) runs every job after it on a pool of w workers (w = 1: one after another),
    whatever the size of the tensor; the pools made are shut down, and the pool made before
    comes back untouched."""
    monkeypatch.setattr(fx, "_POOL_MIN", 0)
    monkeypatch.setattr(fx, "_pool", None)

    def workers(w):
        if fx._pool is not None:
            fx._pool[1].shutdown()
        monkeypatch.setattr(fx, "_pool", None)
        monkeypatch.setattr(fx, "_WORKERS", w)

    yield workers
    if fx._pool is not None:
        fx._pool[1].shutdown()


def _random_dist(space, seed):
    v = np.random.default_rng(seed).random(space.size)
    return fx.make_dist(space, v / v.sum())


def _box_square(g, s):
    box = nof.box_to_dist(nof.exact_s(g, 2))
    return fx.convolve_fourier(box, box, s).values.tobytes()


def _curve(g, s):
    return nof.advantage_curve(nof.box_to_dist(nof.exact_s(g, 2)), 3, s).to_csv().encode()


def _repair_report(g, s):
    # the input of `experiment repair --delta 1e-9`
    v = nof.box_to_dist(nof.exact_s(g, 2)).values * (1 - 1e-9)
    v[0] += 1e-9
    p = fx.make_dist(ProductGroup(g, 4), v)
    q, cert = repair(p, 3, s)
    text = cert.to_text() + repr(verify_repair(p, q, 3, s).k_uniform_residual)
    return text.encode() + repr(eps_k_uniform(q, 3).eps).encode() + q.values.tobytes()


def _two_operands(g, s, m):
    space = ProductGroup(g, m)
    return fx.convolve_fourier(_random_dist(space, SEED), _random_dist(space, SEED + 1),
                               s).values.tobytes()


def _live_synthesis(g, s, m):
    """`_live_passes` on a random product, one random live tuple per coordinate-0 irrep."""
    space = ProductGroup(g, m)
    x = fx.convolve(*(fx.dist_fourier(_random_dist(space, SEED + i), s) for i in (0, 1)))
    rng = np.random.default_rng(SEED)
    live = np.array([list(rng.integers(len(s), size=m - 1)) + [a] for a in range(len(s))])
    return fx._live_passes(x.dense.reshape(-1), fx._stacked(s)[1], s, m, live).tobytes()


# A5^2's GEMMs are too small to split under _GEMM_MIN: a looser rule would cut them into
# pieces that BLAS rounds apart
CASES = {
    "a5^4 box * box": ("a5", _box_square),
    "sl2_3^4 box * box": ("sl2_3", _box_square),
    "a5^4 advantage curve": ("a5", _curve),
    "a5^4 repair report": ("a5", _repair_report),
    "a5^3 p * q": ("a5", functools.partial(_two_operands, m=3)),
    "a5^2 p * q": ("a5", functools.partial(_two_operands, m=2)),
    "a5^2 live synthesis": ("a5", functools.partial(_live_synthesis, m=2)),
    "a5^3 live synthesis": ("a5", functools.partial(_live_synthesis, m=3)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_do_not_depend_on_the_worker_count(request, pool, case):
    # every tensor goes to the pool, so the H^3 and SL(2,3)^4 splits run too
    group, run = CASES[case]
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    outputs = []
    for w in (1, 2, 3):
        pool(w)
        outputs.append(run(g, s))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("blas", ["one OpenBLAS thread", "OpenBLAS unpinned"])
def test_worker_count_check_at_both_blas_settings(blas):
    """The check above in a fresh interpreter, with OpenBLAS's thread count pinned to 1 or left
    to OpenBLAS: a split GEMM can round apart under one setting only."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas == "one OpenBLAS thread":
        env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(groupmix.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    here = os.path.dirname(os.path.abspath(__file__))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_outputs_do_not_depend_on_the_worker_count"],
        cwd=os.path.dirname(here), env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert f"{len(CASES)} passed" in result.stdout


def test_more_workers_than_cores_switching_often(pool, a5):
    """Five workers on the usable CPUs, the interpreter switching threads every microsecond:
    the box square and its table of 3-marginal deviations keep the bits of one worker."""
    s = get_irreps(a5, seed=SEED)
    box = nof.box_to_dist(nof.exact_s(a5, 2))

    def run():
        return (fx.convolve_fourier(box, box, s).values.tobytes(),
                eps_k_uniform(box, 3, full_table=True).per_subset)

    pool(1)
    want = run()
    pool(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_every_job_ends_before_an_error_is_raised(pool):
    pool(2)
    ended = []

    def slow():
        time.sleep(0.2)
        ended.append(True)

    def failing():
        raise fx.BoundViolation("raised in a job")

    with pytest.raises(fx.BoundViolation, match="raised in a job"):
        fx._run([failing, slow], 1)
    assert ended == [True]


def test_errors_in_pooled_jobs_reach_the_caller(pool, a5, monkeypatch):
    pool(2)
    s = get_irreps(a5, seed=SEED)
    space = ProductGroup(a5, 3)
    # a NaN value: its marginal fails make_dist in the k-subset scan, which runs serially
    values = _random_dist(space, SEED).values.copy()
    values[7] = np.nan
    with pytest.raises(ValueError, match="nan"):
        eps_k_uniform(fx.Dist(space, values), 2)
    # a NaN block, synthesized on the pool, fails make_dist in the caller
    dense = fx.dist_fourier(_random_dist(space, SEED), s).dense.copy()
    dense[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="nan"):
        fx.dist_from_fourier(fx.FourierData(s, 3, dense), space)
    # a bound violated inside a pooled matmul of the forward transform
    matmul, calls = np.matmul, []

    def violating(a, b, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise fx.BoundViolation("violated in a job")
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", violating)
    with pytest.raises(fx.BoundViolation, match="violated in a job"):
        fx.dist_fourier(_random_dist(space, SEED), s)
    assert len(calls) == 2    # both pieces of pass 0 ran; the second pass did not start


def test_inputs_below_the_size_threshold_start_no_thread(monkeypatch, a5):
    # A5^3 has 216,000 entries, under _POOL_MIN
    monkeypatch.setattr(fx, "_WORKERS", 2)
    monkeypatch.setattr(fx, "_pool", None)
    s = get_irreps(a5, seed=SEED)
    space = ProductGroup(a5, 3)
    p, q = _random_dist(space, SEED), _random_dist(space, SEED + 1)
    before = threading.active_count()
    fx.convolve_fourier(p, q, s)
    fx.convolve_fourier(p, p, s)
    eps_k_uniform(p, 2)
    assert fx._pool is None and threading.active_count() == before


def test_import_and_serial_runs_load_no_pool_module():
    # the transform engine on tensors under _POOL_MIN, and a k-subset scan, which runs serially
    code = ("import sys; import groupmix.cli; from groupmix import fourier as fx, groups; "
            "from groupmix.irreps import compute_irreps; "
            "from groupmix.uniformity import eps_k_uniform; "
            "g = groups.build_group(groups.cyclic(5)); pg = groups.ProductGroup(g, 3); "
            "p = fx.convolve_fourier(fx.make_dist(pg, [1.0] + [0.0] * (pg.size - 1)), fx.uniform(pg), "
            "compute_irreps(g)); "
            "fx.convolve_fourier(p, p, compute_irreps(g)); eps_k_uniform(p, 2); "
            "print('concurrent.futures' in sys.modules)")
    src = os.path.dirname(os.path.dirname(groupmix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.stdout.strip() == "False", result.stderr


@pytest.mark.parametrize("env, workers", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OPENBLAS_NUM_THREADS": "one"}, 1),
])
def test_pool_takes_the_cpus_blas_leaves(env, workers):
    # on 4 CPUs, BLAS threads read as OpenBLAS reads them: unpinned it takes every CPU
    assert fx._pool_workers(4, env) == workers


def test_worker_count_without_sched_getaffinity():
    # macOS and Windows have no os.sched_getaffinity: the pool counts every CPU there
    code = ("import os; del os.sched_getaffinity; from groupmix import fourier as fx; "
            "print(fx._WORKERS == (os.cpu_count() or 1))")
    src = os.path.dirname(os.path.dirname(groupmix.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.stdout.strip() == "True", result.stderr
