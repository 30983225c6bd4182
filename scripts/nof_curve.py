#!/usr/bin/env python3
"""Advantage curve of the box distribution under repeated convolution.

Prints per-t statistical distance to uniform and writes the CSV log.  On a
quasirandom base group the curve decays to the floor; on solvable groups it
stalls at the abelianized constraint, which is worth seeing once.
"""

import argparse

from groupmix import advantage_curve, build_group, get_irreps, parse_group_spec, verify_s_uniformity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="a5")
    ap.add_argument("--parties", type=int, default=2)
    ap.add_argument("--t-max", type=int, default=8)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    g = build_group(parse_group_spec(args.group))
    s = get_irreps(g)
    report = verify_s_uniformity(g, args.parties)
    print(
        f"{args.group}: 3-uniform={report.is_3_uniform} "
        f"4-wise deviation={float(report.four_wise_deviation)}"
    )
    log = advantage_curve(report.box, args.t_max, s)
    for r in log.records:
        print(f"  t={r.step:3d} tv={r.tv_dist:.6e} linf={r.linf_rel:.6e} l2={r.l2_sq:.6e}")
    out = args.out or f"nof_{args.group.replace(':', '')}.csv"
    log.write_csv(out, include_timing=True)
    print(f"log written to {out}")


if __name__ == "__main__":
    main()
