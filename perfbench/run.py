"""groupmix benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of a groupmix checkout:

  python3 perfbench/run.py --workload boost-a5m4 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1            # every workload
  python3 perfbench/run.py --workload all --smoke             # small group, seconds
  python3 perfbench/run.py --compare before.jsonl after.jsonl

Each repetition runs in a fresh child process (child.py), one at a time, with
the BLAS thread count pinned and a private irrep cache directory.  With
--trace 0 a run measures the end-to-end metrics: repetitions follow each
other until the next one would end after --seconds.  With --trace 1 a run
makes one untraced and one traced repetition and reports the per-layer
metrics (layers.py).  Every repetition's output is checked (checks.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also appends a record, with a
manifest of the machine and software, to the results file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402

BLAS_THREADS = 1          # pinned for every child; determinism holds only at a fixed count
SETUP_ONLY = 4            # extra set-up-only children per untraced run
RUN_DEADLINE = 170.0      # seconds; a run must end within 180

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_s", "s"),
    ("peak_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # boost | nof | repair | irreps
    group: str
    commands: tuple[tuple[str, ...], ...]   # one CLI call per process of a repetition
    mark: str                      # first call of the run part; its entry ends set-up
    steps: tuple[str, ...] = ()    # calls timed one by one for step_s
    out: str | None = None         # output file each CLI call writes (relative to cwd)
    extra: str | None = None       # traced-only calls after the timed part (child.py)
    warm: bool = True              # warm the irrep cache before timing
    m: int = 4


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "boost-a5m4", "boost", "a5",
            (("experiment", "boost", "--group", "{group}", "--m", "4", "--k", "3",
              "--mode", "self-square", "--max-steps", "1", "--target-eps", "10",
              "--out", "out.csv"),),
            mark="boost.boost_pipeline", steps=("boost.convolve",), out="out.csv",
            extra="transforms",
        ),
        Workload(
            "nof-a5p2", "nof", "a5",
            (("experiment", "nof", "--group", "{group}", "--parties", "2",
              "--max-steps", "3", "--out", "out.csv"),),
            mark="nof.verify_s_uniformity", steps=("nof.convolve",), out="out.csv",
            extra="transforms",
        ),
        Workload(
            "repair-a5m4", "repair", "a5",
            (("experiment", "repair", "--group", "{group}", "--m", "4", "--k", "3",
              "--delta", "1e-9", "--out", "report.txt"),),
            mark="cli.run_repair", steps=("cli.run_repair", "cli.verify_repair"),
            out="report.txt", extra="low_part",
        ),
        Workload(
            "irreps-sl2q7", "irreps", "sl2:7",
            (("irreps", "--group", "{group}", "--no-cache"), ("irreps", "--group", "{group}")),
            mark="cli.get_irreps", warm=False, m=0,
        ),
    ]
}
SMOKE_GROUP = "sl2:3"


def cli_argv(command, group: str, seed: int) -> list[str]:
    return [a.format(group=group) for a in command] + ["--seed", f"{seed:010d}"]


def group_order(spec: str) -> int:
    if spec == "a5":
        return 60
    q = int(spec.split(":")[1])
    return q * (q * q - 1)


class RunFailed(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Rep:
    """One repetition: its processes' timings, outputs and check result."""

    setups: list[float] = field(default_factory=list)
    run_s: float = 0.0
    steps: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    outputs: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    env: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def timed(self) -> bool:
        return len(self.outputs) > 0 and self.run_s > 0

    def as_record(self) -> dict:
        return {"setups": self.setups, "run_s": self.run_s, "steps": self.steps,
                "rss_mb": self.rss_mb, "errors": self.errors}


class Bench:
    """Runs one workload's repetitions in a scratch directory inside the checkout."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, reference: dict):
        self.wl = wl
        self.seed = seed
        self.group = SMOKE_GROUP if smoke else wl.group
        self.ref = reference["smoke" if smoke else "full"][wl.name]
        self.scratch = WORK / f"tmp-{os.getpid()}-{wl.name}"
        self.deadline = clock() + RUN_DEADLINE
        self.count = 0

    @staticmethod
    def env(cache: str) -> dict:
        """The whole environment of a child.  Peak RSS moves by several percent
        with the bytes of argv and the environment (heap layout), so within a
        checkout every child of a workload gets the same bytes: a fixed set of
        variables, paths relative to its working directory and a fixed-width
        seed (cli_argv).  Another checkout path still moves it a little."""
        threads = str(BLAS_THREADS)
        return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
                "PYTHONHASHSEED": "0", "GROUPMIX_CACHE_DIR": cache,
                "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads}

    def fresh_dir(self) -> Path:
        self.count += 1
        d = self.scratch / f"rep{self.count}"
        d.mkdir(parents=True)
        (d / "cache").mkdir()
        if self.wl.warm:
            for f in (self.scratch / "warm").iterdir():
                shutil.copy(f, d / "cache" / f.name)
        return d

    def __enter__(self):
        self.scratch.mkdir(parents=True, exist_ok=True)
        if self.wl.warm:
            warm = self.scratch / "warm"
            warm.mkdir()
            self._call([sys.executable, "-m", "groupmix", "irreps", "--group", self.group],
                       self.scratch, "warm")
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _call(self, cmd: list[str], cwd: Path, cache: str) -> float:
        timeout = self.deadline - clock()
        if timeout <= 0:
            raise RunFailed("run deadline passed")
        t0 = clock()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env(cache), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"timed out: {' '.join(cmd[-6:])}") from exc
        if proc.returncode != 0:
            raise RunFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return t0

    def child(self, d: Path, command, setup_only=False, trace=False) -> dict:
        """Run child.py once in d; returns its result plus set-up and run times."""
        result = f"result{len(list(d.glob('result*')))}.json"
        spec = {"argv": cli_argv(command, self.group, self.seed), "mark": self.wl.mark,
                "steps": list(self.wl.steps), "setup_only": setup_only, "trace": trace,
                "extra": self.wl.extra if trace else None, "result": result}
        t0 = self._call([sys.executable, str(HERE / "child.py"), json.dumps(spec)], d, "cache")
        res = json.loads((d / result).read_text())
        if res["rc"] != 0:
            raise RunFailed(f"groupmix exited {res['rc']}: {res['stdout'][-500:]}")
        if res["t_mark"] is None:
            raise RunFailed(f"{self.wl.mark} was never called")
        res["setup_s"] = res["t_mark"] - t0
        res["run_s"] = res["t_end"] - res["t_mark"]
        return res

    def setup_only(self) -> float:
        return self.child(self.fresh_dir(), self.wl.commands[0], setup_only=True)["setup_s"]

    def rep(self, trace=False) -> Rep:
        rep = Rep()
        d = self.fresh_dir()
        try:
            for command in self.wl.commands:
                res = self.child(d, command, trace=trace)
                out = {"stdout": res["stdout"], "file": ""}
                if self.wl.out:
                    out["file"] = (d / self.wl.out).read_text()
                rep.outputs.append(out)
                rep.setups.append(res["setup_s"])
                rep.run_s += res["run_s"]
                rep.steps += res["steps"] or [res["run_s"]]
                rep.rss_mb = max(rep.rss_mb, res["maxrss_kb"] / 1024.0)
                rep.spans.append(res.get("spans", []))
                rep.env = res["env"]
            rep.errors = checks.check_rep(self.wl.kind, rep.outputs, self.ref)
        except (RunFailed, OSError, ValueError, KeyError) as exc:
            rep.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return rep


def measure(wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
            reference: dict) -> dict:
    """One run of one workload; returns its record (metrics, counts, reps)."""
    t_start = clock()
    with Bench(wl, seed, smoke, reference) as bench:
        if trace:
            reps = [bench.rep(trace=False), bench.rep(trace=True)]
            setups = []
        else:
            setups = [bench.setup_only() for _ in range(SETUP_ONLY)]
            reps = []
            while True:
                t0 = clock()
                reps.append(bench.rep())
                if clock() - t_start + (clock() - t0) > seconds:
                    break
        group = bench.group

    failed = sum(1 for r in reps if r.errors)
    if trace and not failed and reps[0].outputs != reps[1].outputs:
        reps[1].errors.append("traced output differs from untraced output")
        failed += 1
    good = [r for r in reps if not r.errors] or [r for r in reps if r.timed]
    if not good:
        raise RunFailed("; ".join(e for r in reps for e in r.errors))

    if trace:
        if not reps[1].timed:
            raise RunFailed("; ".join(reps[1].errors))
        n = group_order(group) if wl.m else 0
        values = layers.derive(reps[1].spans, reps[1].run_s, reps[0].run_s, n, wl.m)
        metrics = {name: {"value": values[name], "unit": layers.UNITS[name]}
                   for name, _, _ in layers.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups + [s for r in good for s in r.setups]),
            "run_s": statistics.median(r.run_s for r in good),
            "step_s": statistics.median(s for r in good for s in r.steps),
            "peak_rss_mb": statistics.median(r.rss_mb for r in good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    manifest = make_manifest(wl, seed, group, good[0].env)
    return {
        "workload": wl.name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "seconds": seconds, "correct": failed == 0, "attempted": len(reps),
        "failed": failed, "fail_ratio": failed / len(reps), "metrics": metrics,
        "setup_only_s": setups, "reps": [r.as_record() for r in reps],
        "manifest": manifest,
    }


def make_manifest(wl: Workload, seed: int, group: str, env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "groupmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    argv = [["groupmix", *cli_argv(c, group, seed)] for c in wl.commands]
    return {
        "groupmix_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": env.get("numpy"),
        "blas_name": env.get("blas_name"),
        "blas_version": env.get("blas_version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(pages / 2**20),
        "machine": platform.machine(),
        "seed": seed,
        "argv": argv,
    }


# ---------------------------------------------------------------------------
# comparison of two results files


def load_results(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"] and not rec["smoke"]:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """better | no worse | worse | unresolved, for b (the change) against a."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    if all(sign * y < sign * x for x in a for y in b):
        return "better"
    if max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]) > bound:
        return "unresolved"
    if sign * (qb[1] - qa[1]) / qa[1] > bound:
        return "worse"
    if sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        return "better"
    return "no worse"


def compare(path_a: str, path_b: str) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_results(path_a), load_results(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':14} {'metric':12} {'unit':5} {'A q1/median/q3 (n)':34} "
          f"{'B q1/median/q3 (n)':34} verdict")
    for wl in WORKLOADS:
        if wl not in a or wl not in b:
            print(f"{wl:14} missing from {'A' if wl not in a else 'B'}")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a[wl]]
            vb = [r["metrics"][name]["value"] for r in b[wl]]
            cols = []
            for vals in (va, vb):
                q1, q2, q3 = quartiles(vals)
                cols.append(f"{q1:.4g}/{q2:.4g}/{q3:.4g} ({len(vals)})")
            v = verdict(va, vb, metric["bound"], metric["better"])
            print(f"{wl:14} {name:12} {metric['unit']:5} {cols[0]:34} {cols[1]:34} {v}")
    return 0


# ---------------------------------------------------------------------------


def report(rec: dict):
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"smoke={str(rec['smoke']).lower()} reps={rec['attempted']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:26} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':26} {rec['fail_ratio']:.6g} ({rec['failed']}/{rec['attempted']})")
    for i, r in enumerate(rec["reps"]):
        for e in r["errors"]:
            print(f"  rep {i} failed: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=f"run each workload on {SMOKE_GROUP}")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    ap.add_argument("--results", default=str(WORK / "results.jsonl"),
                    help="JSON-lines file each run appends its record to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare the end-to-end metrics of two results files")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "groupmix" / "cli.py").is_file():
        print(f"error: groupmix sources not found under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(Path(args.reference).read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    records = []
    for name in names:
        try:
            rec = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                          args.smoke, reference)
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(rec)
        records.append(rec)
        Path(args.results).parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a") as fh:
            fh.write(json.dumps(rec) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
