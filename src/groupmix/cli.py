"""Command-line front door: build groups, cache irreps, run experiments.

Outputs are machine readable: CSV step logs with header
(step, mode, l2_sq, linf_rel, eps_k, tv_dist, seconds) and flat key-value
text blocks for certificates and verification tables.  Identical
invocations (including --seed) produce byte-identical files; the seconds
column is only filled under --timing, which forfeits that guarantee.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from groupmix import boost, fourier as fx, nof
from groupmix.groups import ProductGroup, build_group, parse_group_spec
from groupmix.repair import repair as run_repair, verify_repair
from groupmix.irreps import (
    DEFAULT_TOL,
    IrrepCacheError,
    IrrepComputationError,
    get_irreps,
    quasirandomness_degree,
    verify_schur,
)
from groupmix.uniformity import eps_k_uniform, report_to_text

CACHE_ENV = "GROUPMIX_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "groupmix")


class ConfigError(ValueError):
    pass


def read_config(path: str) -> dict[str, str]:
    """KEY=VALUE defaults, one per line.

    # starts a comment at the start of a line or after whitespace, so a value
    # such as run#1.csv keeps its #.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


@dataclass
class RunConfig:
    group: str
    m: int = 4
    k: int = 3
    parties: int = 2
    seed: int = 0
    tol: float = DEFAULT_TOL
    max_steps: int = 6
    target_eps: float | None = None
    delta: float = 1e-9
    mode: str = "self-square"
    repair_mode: str = "adaptive"
    out: str | None = None
    timing: bool = False
    cache_dir: str | None = None
    no_cache: bool = False

    def validate(self):
        checks = [
            ("m", self.m >= 1, "must be >= 1"),
            ("k", 1 <= self.k <= self.m, f"must lie in [1, m={self.m}]"),
            ("parties", self.parties >= 2, "must be >= 2"),
            ("tol", 1e-12 <= self.tol <= 1e-6, "must lie in [1e-12, 1e-6]"),
            ("max_steps", self.max_steps >= 0, "must be >= 0"),
            ("delta", 0 <= self.delta <= 1, "must lie in [0, 1]"),
            (
                "target_eps",
                self.target_eps is None or self.target_eps > 0,
                "must be positive",
            ),
            ("mode", self.mode in ("self-square", "fresh-copy"), "unknown pipeline mode"),
            (
                "repair_mode",
                self.repair_mode in ("adaptive", "paper-formula"),
                "unknown repair mode",
            ),
        ]
        for field_name, ok, msg in checks:
            if not ok:
                raise ConfigError(f"invalid --{field_name.replace('_', '-')}: {msg}")


# RunConfig fields that a --config file may set, with their parsers
_CONFIG_KEYS = dict(
    group=str, m=int, k=int, parties=int, seed=int, tol=float, max_steps=int, target_eps=float,
    delta=float, mode=str, repair_mode=str, out=str, cache_dir=str,
)


def _resolve(args, path: str, config: dict, key: str, cast, fallback):
    """The flag's value, else the config file's, else fallback.  A key the
    subcommand's parser does not define is ignored: neither parsed nor validated."""
    if not hasattr(args, key):
        return fallback
    cli_val = getattr(args, key)
    if cli_val is not None:
        return cli_val
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ConfigError(f"{path}: invalid value {config[key]!r} for config key {key}") from None
    return fallback


def build_run_config(args) -> RunConfig:
    path = getattr(args, "config", None)
    config = read_config(path) if path else {}
    unknown = [key for key in config if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(
            f"{path}: unknown config key(s) {', '.join(unknown)}; known: {', '.join(_CONFIG_KEYS)}"
        )
    defaults = RunConfig(group="")
    cfg = RunConfig(
        **{key: _resolve(args, path, config, key, cast, getattr(defaults, key))
           for key, cast in _CONFIG_KEYS.items()},
        timing=bool(getattr(args, "timing", False)),
        no_cache=bool(getattr(args, "no_cache", False)),
    )
    if not cfg.group:
        raise ConfigError("invalid --group: a group spec is required (cyclic:N | sl2:Q | a5)")
    cfg.validate()
    return cfg


def _setup(args):
    """A command's config, group and irreps.  The irreps are those of seed 0, so
    every command reads and warms the same cache file."""
    cfg = build_run_config(args)
    g = build_group(parse_group_spec(cfg.group))
    cache = cfg.cache_dir or default_cache_dir()
    return cfg, g, get_irreps(g, tol=cfg.tol, seed=0, cache_dir=cache, use_cache=not cfg.no_cache)


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands


def cmd_irreps(args) -> int:
    _, _, s = _setup(args)
    dims = list(s.dims)
    print(f"dims={dims} sum_sq={sum(d * d for d in dims)} d={quasirandomness_degree(s)}")
    return 0


def cmd_verify(args) -> int:
    cfg, g, s = _setup(args)
    which = args.which
    rng = np.random.default_rng(cfg.seed)
    rows = []

    if which in ("schur", "all"):
        schur = verify_schur(s)
        rows.append(("schur", schur.max_residual, schur.passed))
    if which in ("parseval", "all"):
        worst = 0.0
        for _ in range(20):
            f = rng.standard_normal(g.order)
            lhs = float(np.mean(np.abs(f) ** 2))
            rhs = float(np.dot(s.dims, fx.product_fourier_forward(f, g, s).block_norms_sq))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        rows.append(("parseval", worst, worst <= 1e-10))
    if which in ("convolution", "all"):
        worst = 0.0
        for _ in range(5):
            pv, qv = rng.random(g.order), rng.random(g.order)
            p = fx.make_dist(g, pv / pv.sum())
            q = fx.make_dist(g, qv / qv.sum())
            direct = fx.convolve_direct(p, q)
            fouri = fx.convolve_fourier(p, q, s)
            worst = max(worst, float(np.max(np.abs(direct.values - fouri.values))))
        rows.append(("convolution", worst, worst <= 1e-9))

    all_ok = True
    for name, residual, ok in rows:
        all_ok &= ok
        print(f"{name}\t{_fmt(residual)}\t{'pass' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def _box_input(cfg: RunConfig, g):
    parties = cfg.m.bit_length() - 1
    if cfg.m < 2 or 2**parties != cfg.m:
        raise ConfigError(f"invalid --m: box experiments need m = 2^parties >= 2, got {cfg.m}")
    return nof.box_to_dist(nof.exact_s(g, parties))


def cmd_experiment_flatten(args) -> int:
    cfg, g, s = _setup(args)
    p = _box_input(cfg, g)
    d = quasirandomness_degree(s)
    record = boost.flatten_bound_check(p, cfg.k, d, s)
    ratio = "" if record.ratio is None else _fmt(record.ratio)
    # a failed bound raised BoundViolation: main reports it and exits 1
    summary = f"lhs={_fmt(record.lhs)} rhs={_fmt(record.rhs)} ratio={ratio} hold=true"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(summary + "\n")
            fh.write(report_to_text(eps_k_uniform(p, cfg.k)) + "\n")
    print(summary)
    return 0


def cmd_experiment_boost(args) -> int:
    cfg, g, s = _setup(args)
    p = _box_input(cfg, g)
    target = cfg.target_eps if cfg.target_eps is not None else float(g.order) ** (-cfg.m)
    final, log = boost.boost_pipeline(p, cfg.mode, cfg.max_steps, target, s, k=cfg.k)
    out = cfg.out or f"boost_{cfg.group.replace(':', '')}_m{cfg.m}.csv"
    log.write_csv(out, include_timing=cfg.timing)
    last = log.records[-1]
    reached = last.linf_rel <= target
    print(
        f"steps={last.step} final_eps={_fmt(last.linf_rel)} target={_fmt(target)} "
        f"reached={'true' if reached else 'false'} log={out}"
    )
    return 0 if reached else 1


def cmd_experiment_nof(args) -> int:
    cfg, g, s = _setup(args)
    report = nof.verify_s_uniformity(g, cfg.parties)
    target = cfg.target_eps if cfg.target_eps is not None else float(g.order) ** (-(2**cfg.parties))
    log = nof.advantage_curve(report.box, cfg.max_steps, s, target_eps=target)
    out = cfg.out or f"nof_{cfg.group.replace(':', '')}_p{cfg.parties}.csv"
    log.write_csv(out, include_timing=cfg.timing)
    reached = [r.step for r in log.records if r.linf_rel <= target]
    reached_at = str(reached[0]) if reached else "none"
    ok = report.is_3_uniform and report.four_wise_deviation > 0 and report.identity_rate == 1.0
    print(
        f"3-uniform={'true' if report.is_3_uniform else 'false'} "
        f"four_wise_deviation={float(report.four_wise_deviation)!r} "
        f"identity_rate={report.identity_rate!r} "
        f"reached_target_at_t={reached_at} log={out}"
    )
    return 0 if ok else 1


def cmd_experiment_repair(args) -> int:
    cfg, g, s = _setup(args)
    p0 = _box_input(cfg, g)
    v = p0.values * (1 - cfg.delta)
    v[0] += cfg.delta            # index 0 is the identity tuple
    p = fx.make_dist(p0.space, v)
    del p0
    q, cert = run_repair(p, cfg.k, s, mode=cfg.repair_mode)
    check = verify_repair(p, q, cfg.k, s)
    marg_eps = eps_k_uniform(q, cfg.k).eps
    out = cfg.out or f"repair_{cfg.group.replace(':', '')}_m{cfg.m}_k{cfg.k}.txt"
    with open(out, "w") as fh:
        fh.write(cert.to_text())
        fh.write(f"verify_residual {check.k_uniform_residual!r}\n")
        fh.write(f"marginal_eps_k {marg_eps!r}\n")
    ok = (
        cert.q_nonneg
        and cert.q_normalized
        and cert.residual_ok
        and cert.l1_within_bound
        and cert.beta_adaptive <= cert.beta_paper
    )
    print(
        f"mode={cert.mode} beta={_fmt(cert.beta)} eps_in={_fmt(cert.eps_in)} "
        f"l1={_fmt(cert.l1_distance)} bound={_fmt(cert.bound)} "
        f"residual={_fmt(cert.k_uniform_residual)} pass={'true' if ok else 'false'} report={out}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, seed_help="accepted but unused: nothing here is random"):
    p.add_argument("--group", help="cyclic:N | sl2:Q | a5")
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--tol", type=float)
    p.add_argument("--config", help="key=value defaults file; flags override")
    p.add_argument("--cache-dir", dest="cache_dir", help=f"irrep cache dir (or ${CACHE_ENV})")
    p.add_argument("--no-cache", dest="no_cache", action="store_true", help="recompute irreps")


# every experiment flag; each experiment takes only the ones it reads
_EXPERIMENT_FLAGS = {
    "--m": dict(type=int, help="product-group arity"),
    "--k": dict(type=int, help="uniformity parameter"),
    "--parties": dict(type=int),
    "--mode": dict(choices=("self-square", "fresh-copy")),
    "--max-steps": dict(type=int),
    "--target-eps": dict(type=float),
    "--delta": dict(type=float, help="perturbation weight toward the identity point mass"),
    "--repair-mode": dict(choices=("adaptive", "paper-formula")),
    "--out": dict(help="output path for the log/report"),
    "--timing": dict(action="store_true", help="fill the seconds column (non-deterministic)"),
}

_EXPERIMENTS = (
    ("flatten", cmd_experiment_flatten, "self-convolution flattening bound on the box dist",
     "--m --k --out"),
    ("boost", cmd_experiment_boost, "iterated-convolution pipeline on the box dist",
     "--m --k --out --timing --mode --max-steps --target-eps"),
    ("nof", cmd_experiment_nof, "box-dist uniformity report and advantage curve",
     "--out --timing --parties --max-steps --target-eps"),
    ("repair", cmd_experiment_repair, "repair a perturbed box dist to exact k-uniformity",
     "--m --k --out --delta --repair-mode"),
)


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="groupmix", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p_irr = sub.add_parser("irreps", help="compute and cache irreps; print dims summary")
    _add_common(p_irr, seed_help="accepted but unused: every command uses the seed-0 irreps")
    p_irr.set_defaults(func=cmd_irreps)

    p_ver = sub.add_parser("verify", help="residual checks: schur, parseval, convolution")
    _add_common(p_ver, seed_help="seed of the random test functions")
    p_ver.add_argument("--which", choices=("schur", "parseval", "convolution", "all"), default="all")
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)
    for name, func, help_text, flags in _EXPERIMENTS:
        # no prefix matching: nof would read --m as --max-steps
        p = exp_sub.add_parser(name, help=help_text, allow_abbrev=False)
        _add_common(p)
        for flag in flags.split():
            p.add_argument(flag, **_EXPERIMENT_FLAGS[flag])
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError, GroupConstructionError and BoundViolation are among these
    except (ValueError, AssertionError, OSError, IrrepCacheError, IrrepComputationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
