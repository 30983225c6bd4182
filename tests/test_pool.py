"""The job pool of `groupmix.fourier`: outputs do not depend on the worker count, errors in
pooled jobs reach the caller, and small inputs start no thread."""

from __future__ import annotations

import functools
import math
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
from groupmix.boost import boost_pipeline, flatten_bound_check
from groupmix.groups import ProductGroup
from groupmix.irreps import get_irreps, quasirandomness_degree
from groupmix.repair import repair, verify_repair
from groupmix.uniformity import eps_k_uniform, report_to_text

SEED = 2024


@pytest.fixture
def pool(monkeypatch, workers):
    """`workers` on tensors of any size: pool(w) runs every job after it on a pool of w
    workers (w = 1: one after another)."""
    monkeypatch.setattr(fx, "_POOL_MIN", 0)
    return workers


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


def _boost_log(g, s):
    # `experiment boost --m 4 --k 3 --mode self-square --max-steps 1 --target-eps 10`
    box = nof.box_to_dist(nof.exact_s(g, 2))
    return boost_pipeline(box, "self-square", 1, 10.0, s, k=3)[1].to_csv().encode()


def _box_report(g, s):
    report, box = nof.verify_s_uniformity(g, 2)
    fields = (report.is_3_uniform, report.four_wise_deviation, report.identity_rate)
    return repr(fields).encode() + box.values.tobytes()


def _flatten(g, s):
    # the record and the eps_3 table of `experiment flatten --m 4 --k 3`
    box = nof.box_to_dist(nof.exact_s(g, 2))
    record = flatten_bound_check(box, 3, quasirandomness_degree(s), s)
    return (repr(record) + report_to_text(eps_k_uniform(box, 3))).encode()


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
    # complex irreps: the low part's and the synthesis's imaginary scans
    "sl2_3^4 advantage curve": ("sl2_3", _curve),
    "sl2_3^4 repair report": ("sl2_3", _repair_report),
    "a5^4 self-square boost log": ("a5", _boost_log),
    "a5 box uniformity report": ("a5", _box_report),
    "a5^4 flatten record": ("a5", _flatten),
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


def _reduce_input(case: str) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    size = 3 * fx._SLICE + 1234    # not a multiple of a slice
    if case == "int64":
        return rng.integers(-10**12, 10**12, size=size)
    if case == "below one slice":
        return rng.standard_normal(1000)
    if case == "complex .imag":
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)).imag
    a = rng.standard_normal(size)
    if case.startswith("NaN at"):
        a[int(case.split()[-1])] = np.nan
    elif case == "-0.0 and 0.0":
        a = np.where(a < 0.0, -0.0, 0.0)
    elif case == "-0.0 only":
        a = np.full(size, -0.0)
    return a


@pytest.mark.parametrize("case", ["float64", "int64", "NaN at 0", "NaN at 70000",
                                  f"NaN at {3 * fx._SLICE + 1233}", "-0.0 and 0.0", "-0.0 only",
                                  "complex .imag", "below one slice"])
def test_reduce_matches_numpy(pool, case):
    """`fourier._reduce` gives NumPy's least and largest entry (NaN if any entry is) and its
    integer sum, as Python numbers, and for a float sum the math.fsum of the 2^16-entry slice
    sums, at every worker count."""
    a = _reduce_input(case)
    number = int if a.dtype.kind == "i" else float
    slices = math.fsum(np.sum(a[i:i + fx._SLICE]) for i in range(0, a.size, fx._SLICE))
    for w in (1, 2, 3):
        pool(w)
        low, high, total = fx._reduce(a, np.min, np.max, np.sum)
        assert all(type(x) is number for x in (low, high, total))
        for got, want in ((low, np.min(a).item()), (high, np.max(a).item())):
            assert got == want or repr(got) == repr(want) == "nan"
        if case == "-0.0 only":
            assert repr(low) == repr(high) == "-0.0"
        if number is int:
            assert total == int(np.sum(a))
        else:
            assert repr(total) == repr(slices)
            assert total == pytest.approx(float(np.sum(a)), rel=1e-12, abs=1e-9, nan_ok=True)


def test_more_workers_than_cores_switching_often(pool, a5):
    """Five workers on the usable CPUs, the interpreter switching threads every microsecond:
    the box square, its table of 3-marginal deviations and the repair report keep the bits of
    one worker.  Each run walks a new Dist, since a walked one answers from its memo."""
    s = get_irreps(a5, seed=SEED)
    box = nof.box_to_dist(nof.exact_s(a5, 2))

    def run():
        fresh = fx.Dist(box.space, box.values)
        return (fx.convolve_fourier(box, box, s).values.tobytes(),
                eps_k_uniform(fresh, 3).per_subset, _repair_report(a5, s))

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


def test_a_job_that_calls_run_raises_in_the_caller(pool):
    # waiting on the pool from one of its own jobs could leave no worker free: it fails loudly
    pool(2)
    inner = functools.partial(fx._run, [int, int], 1)
    with pytest.raises(RuntimeError, match="own pool"):
        fx._run([inner, int], 1)
    assert fx._run([int, int], 1) == [0, 0]    # the caller's pool still runs


def test_errors_in_pooled_jobs_reach_the_caller(pool, a5, monkeypatch):
    pool(2)
    s = get_irreps(a5, seed=SEED)
    space = ProductGroup(a5, 3)
    # a NaN value: its marginal, summed in a pooled job, fails make_dist in the caller
    values = _random_dist(space, SEED).values.copy()
    values[7] = np.nan
    with pytest.raises(ValueError, match="nan"):
        eps_k_uniform(fx.Dist(space, values), 2)
    # the low-weight walk checks its marginals as the scan does
    with pytest.raises(ValueError, match="nan"):
        fx.max_low_weight_norm(fx.Dist(space, values), 2, s)
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
