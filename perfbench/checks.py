"""Output checks: each repetition's files and printed summary against reference values.

Reference values (reference.json) were taken from the CLI at the commit that
introduced this benchmark.  A numeric value must match its reference within
a relative 1e-6 plus the numerical floor of the space (10 * machine epsilon *
|G|, the floor `groupmix.boost.numerical_floor` uses).  That admits rounding
differences from a different transform engine and rejects a wrong answer.
A reference value at or below the floor is checked only as being below it.
"""

from __future__ import annotations

import csv
import io
import re
import sys

REL_TOL = 1e-6
_EPS = sys.float_info.epsilon


def numerical_floor(size: int) -> float:
    return 10.0 * _EPS * size


_FIELD = re.compile(r"([\w-]+)=(\[[^\]]*\]|\S*)")


def summary_fields(line: str) -> dict[str, str]:
    """key=value fields of a CLI summary line; a value may be a [list]."""
    return dict(_FIELD.findall(line))


def parse_float(text: str) -> float:
    """A float as the CLI writes it, including a NumPy repr like np.float64(x)."""
    if "(" in text:
        text = text[text.index("(") + 1 : text.rindex(")")]
    return float(text)


def close(got: float, ref: float, floor: float) -> bool:
    if ref <= floor:
        return got <= floor
    return abs(got - ref) <= REL_TOL * abs(ref) + floor


def check_summary(line: str, ref: dict[str, str]) -> list[str]:
    got = summary_fields(line)
    return [
        f"summary {key}={got.get(key)!r}, expected {want!r}"
        for key, want in ref.items()
        if got.get(key) != want
    ]


def check_csv(text: str, ref: dict) -> list[str]:
    """Step-log CSV: same header, steps and modes; numeric cells close."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ref["header"]:
        return [f"csv header {rows[:1]} != {ref['header']}"]
    rows = rows[1:]
    if len(rows) != len(ref["rows"]):
        return [f"csv has {len(rows)} steps, expected {len(ref['rows'])}"]
    floor = numerical_floor(ref["size"])
    # the squared L2 distance is a sum of squared deviations of size 1/|G|
    floors = {"l2_sq": floor * floor / ref["size"]}
    errors = []
    for got_row, ref_row in zip(rows, ref["rows"]):
        for col, got, want in zip(ref["header"], got_row, ref_row):
            if col == "seconds":
                continue
            if col in ("step", "mode") or want == "" or got == "":
                ok = got == want
            else:
                ok = close(float(got), float(want), floors.get(col, floor))
            if not ok:
                errors.append(f"csv step {ref_row[0]} {col}={got}, expected {want}")
    return errors


def check_rep(kind: str, outputs: list[dict], ref: dict) -> list[str]:
    """All failed checks of one repetition; outputs holds one entry per process
    with its printed summary ("stdout") and output file text ("file")."""
    errors = []
    for out, want in zip(outputs, ref["summaries"]):
        errors += check_summary(out["stdout"].strip(), want)
    if kind in ("boost", "nof"):
        errors += check_csv(outputs[0]["file"], ref["csv"])
    elif kind == "repair":
        limit = 1e-12 / ref["size"]
        fields = summary_fields(outputs[0]["stdout"])
        report = dict(
            line.split(" ", 1) for line in outputs[0]["file"].splitlines() if " " in line
        )
        for name, text in (("residual", fields.get("residual", "nan")),
                           ("verify_residual", report.get("verify_residual", "nan"))):
            value = parse_float(text)
            if not value <= limit:
                errors.append(f"{name} {value} above 1e-12/|G| = {limit}")
        eps_in = parse_float(report.get("eps_in", "nan"))
        if not close(eps_in, ref["eps_in"], 0.0):
            errors.append(f"eps_in {eps_in}, expected {ref['eps_in']}")
    return errors
