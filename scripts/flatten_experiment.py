#!/usr/bin/env python3
"""Flattening sweep: how fast self-convolution contracts the L2 distance.

For each requested group, build the two-party box distribution over H^4,
check the flattening bound at k = 3, then run the self-square pipeline and
print the per-step contraction so the empirical rate can be compared with
the bound's factor 2 |H|^(m-k) d^-(k+1).
"""

import argparse

from groupmix import (
    boost,
    box_to_dist,
    build_group,
    exact_s,
    flatten_bound_check,
    get_irreps,
    parse_group_spec,
    quasirandomness_degree,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", nargs="+", default=["sl2:3", "a5"])
    ap.add_argument("--max-steps", type=int, default=6)
    ap.add_argument("--out-prefix", default="flatten")
    args = ap.parse_args()

    for spec in args.groups:
        g = build_group(parse_group_spec(spec))
        s = get_irreps(g)
        d = quasirandomness_degree(s)
        p = box_to_dist(exact_s(g, 2))
        rec = flatten_bound_check(p, 3, d, s)
        print(f"{spec}: d={d} lhs={rec.lhs:.6e} rhs={rec.rhs:.6e} ratio={rec.ratio:.6e}")

        target = float(g.order) ** (-4)
        final, log = boost.boost_pipeline(p, "self-square", args.max_steps, target, s, k=3)
        path = f"{args.out_prefix}_{spec.replace(':', '')}.csv"
        log.write_csv(path, include_timing=True)
        for prev, cur in zip(log.records, log.records[1:]):
            contraction = cur.l2_sq / prev.l2_sq if prev.l2_sq > 0 else float("nan")
            print(
                f"  step {cur.step}: l2={cur.l2_sq:.3e} linf={cur.linf_rel:.3e} "
                f"contraction={contraction:.3e}"
            )
        print(f"  log written to {path}")


if __name__ == "__main__":
    main()
