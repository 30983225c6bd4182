"""Per-layer metrics derived from the spans of one traced repetition.

A span is [name, parent index, start, end, ru_maxrss before, ru_maxrss after,
attrs], recorded by child.py around every public function of a groupmix
module.  Names are "<module>.<function>"; the roots are "cli.import" (the
import of groupmix.cli), "run.main" (the CLI call, the timed part) and
"run.extra" (calls made after the timed part to expose layers the CLI path
reaches only through private functions).

Conventions:
- "<layer>.<name>_s" is the inclusive time of the named public function(s),
  counting only outermost calls, summed over the repetition's processes.
- "<layer>.self_s" is the layer's self time: each span's duration minus the
  time its child spans cover, summed over the timed part.  cli.self_s leaves
  out the import, which cli.import_s reports.
- Metrics marked (derived) or (computed) are not read from a single span.
"""

from __future__ import annotations

import statistics

# (name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("groups.build_s", "s", "lower"),
    ("groups.self_s", "s", "lower"),
    ("irreps.get_s", "s", "lower"),
    ("irreps.cache_hits", "count", "higher"),
    ("irreps.cache_misses", "count", "lower"),
    ("irreps.compute_s", "s", "lower"),
    ("irreps.save_s", "s", "lower"),
    ("irreps.cache_bytes", "B", "lower"),
    ("irreps.load_s", "s", "lower"),
    ("irreps.check_s", "s", "lower"),
    ("irreps.self_s", "s", "lower"),
    ("nof.box_s", "s", "lower"),
    ("nof.tuples", "count", "lower"),
    ("nof.verify_s", "s", "lower"),
    ("nof.self_s", "s", "lower"),
    ("fourier.convolve_s", "s", "lower"),
    ("fourier.convolve_calls", "count", "lower"),
    ("fourier.convolve_rss_mb", "MB", "lower"),
    ("fourier.convolve_share", "ratio", "lower"),
    ("fourier.forward_s", "s", "lower"),
    ("fourier.inverse_s", "s", "lower"),
    ("fourier.block_s", "s", "lower"),
    ("fourier.transform_flops", "flop", "lower"),
    ("fourier.transform_bytes", "B", "lower"),
    ("fourier.forward_gflops", "GFLOP/s", "higher"),
    ("fourier.low_weight_s", "s", "lower"),
    ("fourier.self_s", "s", "lower"),
    ("uniformity.eps_s", "s", "lower"),
    ("uniformity.eps_k_s", "s", "lower"),
    ("uniformity.marginals", "count", "lower"),
    ("uniformity.self_s", "s", "lower"),
    ("boost.measure_s", "s", "lower"),
    ("boost.steps", "count", "lower"),
    ("boost.self_s", "s", "lower"),
    ("repair.low_part_s", "s", "lower"),
    ("repair.repair_s", "s", "lower"),
    ("repair.verify_s", "s", "lower"),
    ("repair.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}
LAYER_NAMES = ("cli", "groups", "irreps", "nof", "fourier", "uniformity", "boost", "repair")

CONVOLUTIONS = {"fourier.convolve", "fourier.convolve_fourier", "fourier.convolve_direct"}
PIPELINES = {"boost.boost_pipeline", "nof.advantage_curve"}
BOX = {"nof.exact_s", "nof.box_to_dist"}


class Spans:
    """Spans of one process, with the queries the metrics need."""

    def __init__(self, spans: list):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[1] >= 0:
                self.children[s[1]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def ancestors(self, i: int):
        p = self.spans[i][1]
        while p >= 0:
            yield p
            p = self.spans[p][1]

    def root(self, i: int) -> str:
        *_, top = [i, *self.ancestors(i)]
        return self.spans[top][0]

    def outer(self, names, root: str = "run.main") -> list[int]:
        """Spans named in `names` with no ancestor also named in `names`."""
        names = {names} if isinstance(names, str) else names
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] in names
            and self.root(i) == root
            and not any(self.spans[a][0] in names for a in self.ancestors(i))
        ]

    def total(self, names, root: str = "run.main") -> float:
        return sum(self.dur(i) for i in self.outer(names, root))

    def descendants(self, i: int):
        for c in self.children[i]:
            yield c
            yield from self.descendants(c)

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])


def derive(procs: list[list], run_traced: float, run_untraced: float,
           n: int, m: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    procs: the span lists of the repetition's processes (two for irreps).
    n, m: base order and arity of the workload's product space (m = 0 when
    it has none).
    """
    ps = [Spans(p) for p in procs]
    out: dict[str, float] = {}

    def total(names, root="run.main"):
        return sum(p.total(names, root) for p in ps)

    out["cli.import_s"] = statistics.median(p.total("cli.import", "cli.import") for p in ps)
    out["groups.build_s"] = statistics.median(p.total("groups.build_group") for p in ps)

    hits = misses = 0
    for p in ps:
        for i in p.outer("irreps.get_irreps"):
            inner = {p.spans[d][0] for d in p.descendants(i)}
            if "irreps.compute_irreps" in inner:
                misses += 1
            else:
                hits += 1
    out["irreps.get_s"] = total("irreps.get_irreps")
    out["irreps.cache_hits"] = hits
    out["irreps.cache_misses"] = misses
    out["irreps.compute_s"] = total("irreps.compute_irreps")
    out["irreps.save_s"] = total("irreps.save_irreps")
    out["irreps.cache_bytes"] = sum(
        (p.spans[i][6] or {}).get("bytes", 0) for p in ps for i in p.outer("irreps.save_irreps")
    )
    out["irreps.load_s"] = total("irreps.load_irreps")
    out["irreps.check_s"] = total("irreps.check_irrep_set")

    out["nof.box_s"] = total(BOX)
    out["nof.tuples"] = sum(
        (p.spans[i][6] or {}).get("tuples", 0) for p in ps for i in p.outer("nof.exact_s")
    )
    out["nof.verify_s"] = total("nof.verify_s_uniformity")

    conv = [(p, i) for p in ps for i in p.outer(CONVOLUTIONS)]
    convolve_s = sum(p.dur(i) for p, i in conv)
    out["fourier.convolve_s"] = convolve_s
    out["fourier.convolve_calls"] = len(conv)
    out["fourier.convolve_rss_mb"] = max((p.spans[i][5] for p, i in conv), default=0) / 1024.0
    out["fourier.convolve_share"] = convolve_s / run_traced if run_traced > 0 else 0.0

    # one forward and one inverse on the workload input, after the timed part
    fwd = total("fourier.product_fourier_forward", "run.extra")
    inv = total("fourier.product_fourier_inverse", "run.extra")
    out["fourier.forward_s"] = fwd
    out["fourier.inverse_s"] = inv
    measured = fwd > 0 and inv > 0
    # (derived) each convolve_fourier call makes one inverse and one forward
    # per distinct operand
    calls = [p.spans[i][6] or {} for p in ps for i in p.outer("fourier.convolve_fourier")]
    transforms = sum(c.get("forwards", 0) for c in calls) * fwd + len(calls) * inv
    out["fourier.block_s"] = convolve_s - transforms if measured else 0.0
    # (computed) m * n^(m+1) complex multiply-adds of 8 flops each, and at
    # least one complex read and write of the n^m states per axis pass
    flops = 8.0 * m * float(n) ** (m + 1) if measured else 0.0
    out["fourier.transform_flops"] = flops
    out["fourier.transform_bytes"] = 2.0 * m * 16.0 * float(n) ** m if measured else 0.0
    out["fourier.forward_gflops"] = flops / fwd / 1e9 if measured else 0.0
    out["fourier.low_weight_s"] = total("fourier.low_weight_coefficients")

    out["uniformity.eps_s"] = total("uniformity.eps_uniform")
    out["uniformity.eps_k_s"] = total("uniformity.eps_k_uniform")
    out["uniformity.marginals"] = sum(
        1
        for p in ps
        for i, s in enumerate(p.spans)
        if s[0] == "fourier.marginalize"
        and any(p.spans[a][0] == "uniformity.eps_k_uniform" for a in p.ancestors(i))
    )

    # (derived) pipeline time spent outside convolution and box building
    measure, steps = 0.0, 0
    for p in ps:
        convs, boxes = p.outer(CONVOLUTIONS), p.outer(BOX)
        for i in p.outer(PIPELINES):
            conv_in = [d for d in convs if i in p.ancestors(d)]
            box_in = [d for d in boxes if i in p.ancestors(d)]
            measure += p.dur(i) - sum(p.dur(d) for d in conv_in + box_in)
            steps += len(conv_in)
    out["boost.measure_s"] = measure
    out["boost.steps"] = steps

    out["repair.low_part_s"] = total("repair.low_part", "run.extra")
    out["repair.repair_s"] = total("repair.repair")
    out["repair.verify_s"] = total("repair.verify_repair")

    selfs = dict.fromkeys(LAYER_NAMES, 0.0)
    for p in ps:
        for i, s in enumerate(p.spans):
            layer = s[0].split(".", 1)[0]
            if layer in selfs and p.root(i) == "run.main":
                selfs[layer] += p.self_time(i)
    for layer, value in selfs.items():
        out[f"{layer}.self_s"] = value

    out["trace.overhead_s"] = run_traced - run_untraced
    out["trace.spans"] = sum(len(p.spans) for p in ps)
    return {name: out[name] for name, _, _ in PER_LAYER}
