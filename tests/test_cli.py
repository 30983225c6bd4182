from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from groupmix.cli import default_cache_dir, main, read_config


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "cache")


def test_irreps_summary_a5(capsys, cache):
    code, out, _ = run_cli(["irreps", "--group", "a5", "--cache-dir", cache], capsys)
    assert code == 0
    assert out.strip() == "dims=[1, 3, 3, 4, 5] sum_sq=60 d=3"


def test_irreps_summary_cyclic(capsys, cache):
    code, out, _ = run_cli(["irreps", "--group", "cyclic:4", "--cache-dir", cache], capsys)
    assert code == 0
    assert out.strip() == "dims=[1, 1, 1, 1] sum_sq=4 d=1"


def test_irreps_summary_trivial_group(capsys, cache):
    code, out, _ = run_cli(["irreps", "--group", "cyclic:1", "--cache-dir", cache], capsys)
    assert code == 0
    assert out.strip() == "dims=[1] sum_sq=1 d=1"


def test_cache_dir_defaults_to_the_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("GROUPMIX_CACHE_DIR", str(tmp_path))
    assert default_cache_dir() == str(tmp_path)


def test_irreps_rejects_nonprime_q(capsys, cache):
    code, _, err = run_cli(["irreps", "--group", "sl2:4", "--cache-dir", cache], capsys)
    assert code == 1
    assert "prime" in err


def test_verify_all_passes(capsys, cache):
    code, out, _ = run_cli(
        ["verify", "--group", "sl2:5", "--which", "all", "--cache-dir", cache], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln.split("\t")[0] for ln in lines] == ["schur", "parseval", "convolution"]
    assert all(ln.endswith("pass") for ln in lines)
    assert all(float(ln.split("\t")[1]) <= 1e-8 for ln in lines)


def test_verify_cyclic(capsys, cache):
    code, out, _ = run_cli(["verify", "--group", "cyclic:6", "--cache-dir", cache], capsys)
    assert code == 0


def test_verify_detects_corrupted_cache(cache):
    # fresh processes, so the on-disk cache is what actually gets loaded
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "groupmix", *args, "--cache-dir", cache],
            capture_output=True,
            text=True,
        )

    assert run(["irreps", "--group", "cyclic:6"]).returncode == 0
    cached = next(pathlib.Path(cache).iterdir())
    with np.load(cached, allow_pickle=False) as z:
        members = {name: z[name] for name in z.files}
    members["arr_1"][3] = 0.5 + 0.5j  # clobber one matrix row in a valid archive
    with open(cached, "wb") as fh:
        np.savez(fh, **members)
    proc = run(["verify", "--group", "cyclic:6"])
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "experiment, flag",
    [
        ("nof", ["--m", "4"]),
        ("nof", ["--k", "3"]),
        ("repair", ["--engine", "fourier"]),
        ("repair", ["--timing"]),
        ("flatten", ["--timing"]),
        ("flatten", ["--engine", "fourier"]),
        ("boost", ["--engine", "fourier"]),
        ("nof", ["--engine", "direct"]),
    ],
)
def test_experiment_rejects_flags_it_does_not_read(capsys, monkeypatch, tmp_path, experiment, flag):
    monkeypatch.chdir(tmp_path)  # a regression would run the experiment and write here
    with pytest.raises(SystemExit) as exc:
        main(["experiment", experiment, "--group", "a5", "--cache-dir", str(tmp_path), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_experiment_flatten_summary(capsys, cache, tmp_path):
    out_path = str(tmp_path / "flatten.txt")
    code, out, _ = run_cli(
        [
            "experiment", "flatten", "--group", "sl2:3", "--m", "4", "--k", "3",
            "--cache-dir", cache, "--out", out_path,
        ],
        capsys,
    )
    assert code == 0
    assert "hold=true" in out
    assert "lhs=" in out and "rhs=" in out and "ratio=" in out
    assert "hold=true" in open(out_path).read()


def test_irreps_warms_the_cache_experiments_read(capsys, cache, tmp_path):
    irreps_argv = ["irreps", "--group", "sl2:3", "--seed", "5", "--cache-dir", cache]
    assert run_cli(irreps_argv, capsys)[0] == 0
    code, _, _ = run_cli(
        [
            "experiment", "flatten", "--group", "sl2:3", "--m", "4", "--k", "3", "--seed", "5",
            "--cache-dir", cache, "--out", str(tmp_path / "flatten.txt"),
        ],
        capsys,
    )
    assert code == 0
    assert len(list(pathlib.Path(cache).iterdir())) == 1


def test_experiment_boost_csv_and_determinism(capsys, cache, tmp_path):
    args = [
        "experiment", "boost", "--group", "sl2:3", "--m", "2", "--k", "1",
        "--mode", "self-square", "--max-steps", "4", "--seed", "7",
        "--cache-dir", cache,
    ]
    out1 = str(tmp_path / "run1.csv")
    out2 = str(tmp_path / "run2.csv")
    code1, _, _ = run_cli(args + ["--out", out1], capsys)
    code2, _, _ = run_cli(args + ["--out", out2], capsys)
    assert code1 == 0 and code2 == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "step,mode,l2_sq,linf_rel,eps_k,tv_dist,seconds"


def test_experiment_nof_summary(capsys, cache, tmp_path):
    out_path = str(tmp_path / "nof.csv")
    code, out, _ = run_cli(
        [
            "experiment", "nof", "--group", "sl2:3", "--parties", "2",
            "--max-steps", "4", "--cache-dir", cache, "--out", out_path,
        ],
        capsys,
    )
    assert code == 0
    assert "3-uniform=true" in out
    assert "reached_target_at_t=" in out
    rows = open(out_path).read().splitlines()
    assert rows[0] == "step,mode,l2_sq,linf_rel,eps_k,tv_dist,seconds"
    assert len(rows) == 5  # t = 1..4


def test_experiment_nof_is_the_same_under_every_seed(capsys, cache, tmp_path):
    # the identity rate is exact, so nothing in the run reads --seed
    outputs = []
    for seed in ("0", "7"):
        out_path = str(tmp_path / f"nof{seed}.csv")
        code, out, _ = run_cli(
            ["experiment", "nof", "--group", "sl2:3", "--parties", "2", "--seed", seed,
             "--cache-dir", cache, "--out", out_path],
            capsys,
        )
        assert code == 0 and "identity_rate=1.0 " in out
        outputs.append((open(out_path, "rb").read(), out.replace(out_path, "OUT")))
    assert outputs[0] == outputs[1]


def test_experiment_nof_timing_column(capsys, cache, tmp_path):
    # t = 1 is s itself and reads 0.0; every later step times its product and inverse
    argv = ["experiment", "nof", "--group", "sl2:3", "--parties", "2", "--max-steps", "4",
            "--cache-dir", cache]
    timed, plain = str(tmp_path / "timed.csv"), str(tmp_path / "plain.csv")
    assert run_cli(argv + ["--timing", "--out", timed], capsys)[0] == 0
    assert run_cli(argv + ["--out", plain], capsys)[0] == 0
    seconds = [row.split(",")[-1] for row in open(timed).read().splitlines()[1:]]
    assert len(seconds) == 4 and float(seconds[0]) == 0.0
    assert all(float(x) > 0.0 for x in seconds[1:])
    assert all(row.endswith(",") for row in open(plain).read().splitlines()[1:])


def test_experiment_repair_report(capsys, cache, tmp_path):
    out_path = str(tmp_path / "cert.txt")
    code, out, _ = run_cli(
        [
            "experiment", "repair", "--group", "sl2:3", "--m", "4", "--k", "3",
            "--delta", "1e-9", "--cache-dir", cache, "--out", out_path,
        ],
        capsys,
    )
    assert code == 0
    assert "pass=true" in out
    text = open(out_path).read()
    assert "residual_ok True" in text and "l1_within_bound True" in text


def test_config_file_defaults_and_overrides(capsys, cache, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=sl2:3\nm=4\nk=3\n# comment\n")
    out_path = str(tmp_path / "flatten.txt")
    code, out, _ = run_cli(
        ["experiment", "flatten", "--config", str(cfg), "--cache-dir", cache, "--out", out_path],
        capsys,
    )
    assert code == 0 and "hold=true" in out
    # flag overrides the config value: k=5 is invalid for m=4
    code, _, err = run_cli(
        ["experiment", "flatten", "--config", str(cfg), "--k", "5", "--cache-dir", cache],
        capsys,
    )
    assert code == 1 and "--k" in err


def test_config_file_keys_a_subcommand_does_not_read_are_ignored(capsys, cache, tmp_path):
    # nof has no --k, so k=5 is ignored there; boost reads k and rejects it for m=4
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=sl2:3\nm=4\nk=5\nmax_steps=2\n")
    code, out, err = run_cli(
        ["experiment", "nof", "--config", str(cfg), "--cache-dir", cache,
         "--out", str(tmp_path / "nof.csv")],
        capsys,
    )
    assert code == 0 and err == "" and "3-uniform=true" in out
    code, _, err = run_cli(
        ["experiment", "boost", "--config", str(cfg), "--cache-dir", cache,
         "--out", str(tmp_path / "boost.csv")],
        capsys,
    )
    assert code == 1 and "invalid --k" in err


def test_config_file_rejects_unknown_key(capsys, cache, tmp_path):
    cfg = tmp_path / "run.cfg"
    # engine is no key: the input size picks the convolution engine
    for key in ("kk=2", "engine=fourier"):
        cfg.write_text(f"group=sl2:3\nm=4\n{key}\n")
        code, _, err = run_cli(
            ["experiment", "flatten", "--config", str(cfg), "--cache-dir", cache], capsys
        )
        assert code == 1
        assert f"unknown config key(s) {key.split('=')[0]};" in err and str(cfg) in err


@pytest.mark.parametrize(
    "flags, path",
    [(["--config", "{tmp}/missing.cfg"], "missing.cfg"), (["--out", "{tmp}/no/dir/f.txt"], "f.txt")],
)
def test_unusable_paths_print_an_error(capsys, cache, tmp_path, flags, path):
    argv = ["experiment", "flatten", "--group", "sl2:2", "--m", "4", "--k", "3", "--cache-dir", cache]
    code, _, err = run_cli(argv + [f.format(tmp=tmp_path) for f in flags], capsys)
    assert code == 1
    assert err.startswith("error: ") and path in err


def test_config_file_rejects_bad_value(capsys, cache, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=sl2:3\nm=four\n")
    code, _, err = run_cli(
        ["experiment", "flatten", "--config", str(cfg), "--cache-dir", cache], capsys
    )
    assert code == 1
    assert str(cfg) in err and "'four'" in err and "key m" in err


def test_config_file_rejects_line_without_equals(capsys, cache, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=sl2:3\nm 4\n")
    code, _, err = run_cli(
        ["experiment", "flatten", "--config", str(cfg), "--cache-dir", cache], capsys
    )
    assert code == 1
    assert f"{cfg}:2: expected KEY=VALUE, got 'm 4'" in err


def test_config_hash_starts_comment_only_at_line_start_or_after_space(capsys, cache, tmp_path):
    cfg = tmp_path / "run.cfg"
    out_path = tmp_path / "run#1.csv"
    cfg.write_text(f"# defaults\ngroup=sl2:3\nm=4  # arity\nk=3\t# order\nout={out_path}\n")
    assert read_config(str(cfg)) == {"group": "sl2:3", "m": "4", "k": "3", "out": str(out_path)}
    code, out, _ = run_cli(
        ["experiment", "flatten", "--config", str(cfg), "--cache-dir", cache], capsys
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == out.strip()
    assert not (tmp_path / "run").exists()


def test_fail_fast_validation_names_field(capsys, cache):
    code, _, err = run_cli(
        ["experiment", "boost", "--group", "a5", "--m", "0", "--cache-dir", cache], capsys
    )
    assert code == 1 and "--m" in err
    code, _, err = run_cli(
        ["experiment", "repair", "--group", "a5", "--m", "3", "--k", "2", "--cache-dir", cache],
        capsys,
    )
    assert code == 1 and "--m" in err  # arity must be a power of two


def test_repair_delta_must_be_a_weight(capsys, cache, tmp_path):
    # above 1 the perturbed input has negative entries, and make_dist rejected it
    # without naming the flag; 1 itself is the identity point mass and repairs
    argv = ["experiment", "repair", "--group", "sl2:2", "--m", "4", "--k", "3",
            "--cache-dir", cache, "--out", str(tmp_path / "cert.txt")]
    for delta in ("2", "-0.5", "nan"):
        code, _, err = run_cli(argv + ["--delta", delta], capsys)
        assert code == 1 and "invalid --delta: must lie in [0, 1]" in err
    code, out, _ = run_cli(argv + ["--delta", "1"], capsys)
    assert code == 0 and "pass=true" in out


def test_nof_needs_two_parties(capsys, cache):
    code, _, err = run_cli(
        ["experiment", "nof", "--group", "sl2:2", "--parties", "1", "--cache-dir", cache], capsys
    )
    assert code == 1 and "invalid --parties: must be >= 2" in err


def test_nof_over_the_cap_names_it(capsys, cache):
    # 60^4096 states: the cap is named, not Python's limit on printing a 7,283-digit int
    code, _, err = run_cli(
        ["experiment", "nof", "--group", "a5", "--parties", "12", "--cache-dir", cache], capsys
    )
    assert code == 1 and "above the supported maximum of 13500000" in err


def test_missing_group_rejected(capsys, cache):
    code, _, err = run_cli(["irreps", "--cache-dir", cache], capsys)
    assert code == 1
    assert "--group" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "groupmix", "irreps", "--group", "cyclic:4",
         "--cache-dir", str(tmp_path / "c")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "dims=[1, 1, 1, 1] sum_sq=4 d=1"


def _summary(line: str) -> dict[str, str]:
    return dict(field.split("=", 1) for field in line.split())


def test_outputs_parse_back_to_printed_floats(capsys, cache, tmp_path):
    # every numeric value a file holds is a plain float literal
    cert_path = str(tmp_path / "cert.txt")
    code, out, _ = run_cli(
        [
            "experiment", "repair", "--group", "sl2:3", "--m", "4", "--k", "3",
            "--delta", "1e-9", "--cache-dir", cache, "--out", cert_path,
        ],
        capsys,
    )
    assert code == 0
    report = dict(line.split(" ", 1) for line in open(cert_path).read().splitlines())
    numbers = {
        key: float(val)
        for key, val in report.items()
        if key != "mode" and val not in ("True", "False")
    }
    assert len(numbers) == len(report) - 5  # mode and four verdicts
    assert {"verify_residual", "marginal_eps_k"} <= numbers.keys()
    printed = _summary(out)
    for key, name in (("beta", "beta"), ("eps_in", "eps_in"), ("l1", "l1_distance"),
                      ("bound", "bound"), ("residual", "k_uniform_residual")):
        assert float(printed[key]) == numbers[name]

    csv_path = str(tmp_path / "boost.csv")
    code, out, _ = run_cli(
        [
            "experiment", "boost", "--group", "sl2:3", "--m", "2", "--k", "1",
            "--max-steps", "3", "--timing", "--cache-dir", cache, "--out", csv_path,
        ],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in open(csv_path).read().splitlines()]
    header, rows = rows[0], rows[1:]
    for row in rows:
        for col, cell in zip(header, row):
            if col != "mode" and cell != "":
                float(cell)
    assert float(_summary(out)["final_eps"]) == float(rows[-1][header.index("linf_rel")])


def test_bound_violation_raised_under_optimize():
    # a wrong quasirandomness degree breaks the flattening bound; the check
    # must fire although -O strips assert statements
    code = (
        "from groupmix import boost, groups, irreps, nof\n"
        "g = groups.build_group(groups.sl2(3))\n"
        "p = nof.box_to_dist(nof.exact_s(g, 2))\n"
        "s = irreps.compute_irreps(g)\n"
        "try:\n"
        "    boost.flatten_bound_check(p, 1, 10**6, s)\n"
        "except AssertionError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("BoundViolation flattening bound violated")


def test_no_assert_statements_in_src():
    # python -O strips assert; every check in the library must raise instead
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "groupmix"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
