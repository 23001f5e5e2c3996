import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from heislab.cli import main
from heislab.delta_sets import BallFamily, read_family, write_family


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_family_file(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, stdout, _ = run_cli(["gen", "--kind", "horizontal-line",
                               "--delta", "0.25", "--out", str(out)], capsys)
    assert code == 0
    assert "9 balls" in stdout
    fam = read_family(out)
    assert len(fam) == 9
    assert fam.claimed_t == 1.0


def test_gen_requires_delta(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--out", str(tmp_path / "x.txt")])
    capsys.readouterr()


def test_gen_t_axis_with_s(tmp_path, capsys):
    out = tmp_path / "axis.txt"
    code, _, _ = run_cli(["gen", "--kind", "t-axis", "--delta", "0.125",
                          "--s", "1.0", "--out", str(out)], capsys)
    assert code == 0
    assert len(read_family(out)) == 8


def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    run_cli(["gen", "--kind", "t-axis", "--delta", "0.125",
             "--out", str(good)], capsys)
    code, stdout, _ = run_cli(["verify", "--input", str(good)], capsys)
    assert code == 0
    assert json.loads(stdout)["passes"] is True

    bad = tmp_path / "bad.txt"
    fam = read_family(good)
    # claim a dimension the family cannot have
    write_family(bad, BallFamily(fam.centers, fam.delta, 3.0, 1.0))
    code, stdout, _ = run_cli(["verify", "--input", str(bad)], capsys)
    assert code == 1
    assert json.loads(stdout)["passes"] is False


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    code, _, stderr = run_cli(["verify", "--input",
                               str(tmp_path / "nope.txt")], capsys)
    assert code == 2
    assert "error:" in stderr


def test_gen_invalid_family_is_error(tmp_path, capsys):
    code, _, stderr = run_cli(["gen", "--kind", "t-axis", "--delta", "0.125",
                               "--s", "3.0", "--out",
                               str(tmp_path / "x.txt")], capsys)
    assert code == 2
    assert "error:" in stderr


def test_experiment_best_direction_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, stdout, _ = run_cli(
        ["experiment", "best-direction", "--kind", "horizontal-line",
         "--delta", "0.25", "--directions", "4",
         "--points-per-ball", "200", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    for ext in (".json", ".csv", ".svg"):
        assert (out_dir / ("best_direction" + ext)).exists()
    payload = json.loads((out_dir / "best_direction.json").read_text())
    assert payload["name"] == "best_direction"
    assert len(payload["series"]["theta"]) == 4


def test_experiment_rho_dim_from_input_file(tmp_path, capsys):
    fam_path = tmp_path / "fam.txt"
    run_cli(["gen", "--kind", "t-axis", "--delta", "0.03125",
             "--out", str(fam_path)], capsys)
    out_dir = tmp_path / "r"
    code, _, _ = run_cli(["experiment", "rho-dim", "--input", str(fam_path),
                          "--directions", "3", "--out-dir", str(out_dir)],
                         capsys)
    assert code == 0
    payload = json.loads((out_dir / "rho_dimension.json").read_text())
    assert len(payload["series"]["theta"]) == 3


def test_experiment_plate_energy(tmp_path, capsys):
    out_dir = tmp_path / "pe"
    code, _, _ = run_cli(
        ["experiment", "plate-energy", "--kind", "random3",
         "--delta", "0.125", "--samples", "20000",
         "--seed", "1", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    payload = json.loads((out_dir / "plate_energy.json").read_text())
    assert payload["scalars"]["energy"] > 0


def test_experiment_requires_delta_or_input(tmp_path, capsys):
    code, _, stderr = run_cli(["experiment", "rho-dim",
                               "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "error:" in stderr


def test_constants_stdout_and_file(tmp_path, capsys):
    code, stdout, _ = run_cli(["constants", "--balls", "3",
                               "--pairs", "10"], capsys)
    assert code == 0
    names = [line.split()[0] for line in stdout.strip().splitlines()]
    assert "ball_volume_mc" in names
    out = tmp_path / "m.txt"
    code, stdout, _ = run_cli(["constants", "--balls", "3", "--pairs", "10",
                               "--out", str(out)], capsys)
    assert code == 0
    assert out.exists()


def _run_subprocess(args, env, cwd):
    return subprocess.run([sys.executable, "-m", "heislab.cli"] + args,
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_reports_bit_identical_across_reruns(tmp_path, child_env):
    args = ["experiment", "best-direction", "--kind", "horizontal-line",
            "--delta", "0.25", "--directions", "4",
            "--points-per-ball", "200", "--seed", "5"]
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    r1 = _run_subprocess(args + ["--out-dir", str(d1)], child_env(), tmp_path)
    r2 = _run_subprocess(args + ["--out-dir", str(d2)], child_env(), tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    for ext in (".json", ".csv", ".svg"):
        b1 = (d1 / ("best_direction" + ext)).read_bytes()
        b2 = (d2 / ("best_direction" + ext)).read_bytes()
        assert b1 == b2


def test_cli_module_entrypoint_help(tmp_path, child_env):
    r = _run_subprocess(["--help"], child_env(), tmp_path)
    assert r.returncode == 0, r.stderr
    for word in ("gen", "verify", "experiment", "constants"):
        assert word in r.stdout


def test_package_imports_no_scipy(tmp_path, child_env):
    code = ("import sys, heislab, heislab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=child_env(), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# scipy is a test dependency only: with it made unimportable, the
# commands that sample ball points and project balls still run
NO_SCIPY = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from heislab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["constants", "--balls", "3", "--pairs", "50"],
    ["experiment", "best-direction", "--kind", "horizontal-line",
     "--delta", "0.25", "--directions", "2"],
])
def test_commands_run_without_scipy(tmp_path, child_env, argv):
    r = subprocess.run([sys.executable, "-c", NO_SCIPY] + argv,
                       capture_output=True, text=True, env=child_env(),
                       cwd=tmp_path)
    assert r.returncode == 0, r.stderr


def assert_one_error_line(code, stderr):
    assert code == 2
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr


@pytest.mark.parametrize("kind", ["heis-lattice", "t-axis"])
@pytest.mark.parametrize("delta", ["0", "-0.1", "nan", "inf", "0.75"])
def test_gen_bad_delta_is_usage_error(tmp_path, capsys, kind, delta):
    out = tmp_path / "fam.txt"
    code, _, stderr = run_cli(["gen", "--kind", kind, "--delta", delta,
                               "--out", str(out)], capsys)
    assert_one_error_line(code, stderr)
    assert not out.exists()


def test_gen_too_large_to_allocate_is_usage_error(tmp_path, capsys):
    # 10^18 t-axis points: numpy refuses the 6.9 EiB array at once
    out = tmp_path / "fam.txt"
    code, _, stderr = run_cli(["gen", "--kind", "t-axis", "--delta", "1e-9",
                               "--s", "2", "--out", str(out)], capsys)
    assert_one_error_line(code, stderr)
    assert "allocate" in stderr
    assert not out.exists()


MALFORMED_FAMILIES = {
    "bad float": "0.25 1 4 2\n0 0 0\n0.25 0 zero\n",
    "nan center": "0.25 1 4 2\n0 0 0\n0.25 nan 0\n",
    "short body": "0.25 1 4 2\n0 0 0\n0.25 0\n",
    "count mismatch": "0.25 1 4 3\n0 0 0\n0.25 0 0\n",
    "3-field header": "0.25 1 4\n0 0 0\n",
    "negative delta": "-0.25 1 4 2\n0 0 0\n0.25 0 0\n",
}


@pytest.mark.parametrize("command", [["verify"], ["experiment", "rho-dim"]])
@pytest.mark.parametrize("case", sorted(MALFORMED_FAMILIES))
def test_malformed_family_file_is_usage_error(tmp_path, capsys, command,
                                              case):
    path = tmp_path / "fam.txt"
    path.write_text(MALFORMED_FAMILIES[case])
    argv = command + ["--input", str(path)]
    if command[0] == "experiment":
        argv += ["--out-dir", str(tmp_path / "r")]
    code, _, stderr = run_cli(argv, capsys)
    assert_one_error_line(code, stderr)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("header", ["0.25 4 nan 105", "0.25 nan 8 105",
                                    "0.25 4 -8 105"])
def test_verify_rejects_meaningless_claims(tmp_path, capsys, header):
    path = tmp_path / "fam.txt"
    run_cli(["gen", "--delta", "0.25", "--out", str(path)], capsys)
    lines = path.read_text().splitlines()
    assert len(lines) == 106
    path.write_text("\n".join([header] + lines[1:]) + "\n")
    code, stdout, stderr = run_cli(["verify", "--input", str(path)], capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)


def test_verify_rejects_zero_max_centers(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    run_cli(["gen", "--delta", "0.25", "--out", str(path)], capsys)
    code, stdout, stderr = run_cli(["verify", "--input", str(path),
                                    "--max-centers", "0"], capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)


def test_family_flags_the_family_does_not_take_are_errors(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    run_cli(["gen", "--kind", "t-axis", "--delta", "0.125", "--out",
             str(path)], capsys)
    base = ["experiment", "rho-dim", "--directions", "2", "--out-dir",
            str(tmp_path / "r")]
    for extra in (["--kind", "random3", "--delta", "0.25", "--s", "1.5"],
                  ["--kind", "t-axis", "--delta", "0.25", "--dim0", "0.5"],
                  ["--input", str(path), "--s", "1.5"],
                  ["--input", str(path), "--dim0", "0.5"],
                  ["--input", str(path), "--delta", "0.125"],
                  ["--input", str(path), "--kind", "t-axis"]):
        code, _, stderr = run_cli(base + extra, capsys)
        assert_one_error_line(code, stderr)
    # --seed is accepted with every kind and with --input
    for extra in (["--kind", "heis-lattice", "--delta", "0.25"],
                  ["--input", str(path)]):
        code, _, _ = run_cli(base + extra + ["--seed", "3"], capsys)
        assert code == 0


def test_experiment_input_report_names_the_family_kind(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    run_cli(["gen", "--kind", "t-axis", "--delta", "0.125", "--out",
             str(path)], capsys)
    old = tmp_path / "old.txt"
    lines = path.read_text().splitlines()
    old.write_text("\n".join([" ".join(lines[0].split()[:4])] + lines[1:])
                   + "\n")
    for src, kind in ((path, "t-axis"), (old, "custom")):
        out_dir = tmp_path / kind
        code, _, _ = run_cli(["experiment", "rho-dim", "--input", str(src),
                              "--directions", "2", "--out-dir",
                              str(out_dir)], capsys)
        assert code == 0
        payload = json.loads((out_dir / "rho_dimension.json").read_text())
        assert payload["params"]["kind"] == kind


@pytest.mark.parametrize("flags", [["--balls", "0"], ["--balls", "-3"],
                                   ["--pairs", "-1"]])
def test_constants_rejects_counts_below_range(tmp_path, capsys, flags):
    out = tmp_path / "m.txt"
    code, stdout, stderr = run_cli(["constants", "--out", str(out)] + flags,
                                   capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)
    assert flags[0] in stderr
    assert not out.exists()


def test_constants_with_no_pairs_has_no_separation_samples(tmp_path,
                                                         capsys):
    out = tmp_path / "m.txt"
    code, _, _ = run_cli(["constants", "--balls", "1", "--pairs", "0",
                          "--out", str(out)], capsys)
    assert code == 0
    line = [ln for ln in out.read_text().splitlines()
            if ln.startswith("same_direction_separation_C ")]
    assert line and line[0].split()[1:3] == ["0", "0"]


@pytest.mark.parametrize("argv", [
    ["constants", "--balls", "1", "--pairs", "1"],
    ["gen", "--kind", "random3", "--delta", "0.25"],
    ["experiment", "plate-energy", "--kind", "random3", "--delta", "0.25"],
    ["verify"],
])
def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys, argv):
    fam = tmp_path / "fam.txt"
    run_cli(["gen", "--kind", "t-axis", "--delta", "0.125", "--out",
             str(fam)], capsys)
    out = tmp_path / "out.txt"
    extra = {"constants": ["--out", str(out)], "gen": ["--out", str(out)],
             "experiment": ["--out-dir", str(tmp_path / "r")],
             "verify": ["--input", str(fam)]}[argv[0]]
    code, stdout, stderr = run_cli(argv + extra + ["--seed", "-1"], capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)
    assert "--seed" in stderr
    assert not out.exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment, kind, flag", [
    ("plate-energy", "random3", "--samples"),
    ("best-direction", "horizontal-line", "--directions"),
    ("best-direction", "horizontal-line", "--points-per-ball"),
    ("rho-dim", "horizontal-line", "--directions"),
])
def test_experiment_rejects_zero_counts(tmp_path, capsys, experiment, kind,
                                        flag):
    argv = ["experiment", experiment, "--kind", kind, "--delta", "0.25",
            flag, "0", "--out-dir", str(tmp_path / "r")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(argv, capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)
    assert flag in stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", [
    ["verify"], ["experiment", "best-direction"],
    ["experiment", "plate-energy"], ["experiment", "rho-dim"]])
def test_empty_family_file_is_usage_error(tmp_path, capsys, command):
    # a valid file with no centers: every command that reads a family
    # stops at the boundary, before any numeric warning or report
    path = tmp_path / "fam.txt"
    path.write_text("0.25 3 8 0 random3\n")
    argv = command + ["--input", str(path)]
    if command[0] == "experiment":
        argv += ["--out-dir", str(tmp_path / "r")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(argv, capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)
    assert "empty family" in stderr
    assert not (tmp_path / "r").exists()


def test_points_per_ball_is_accepted_and_has_no_effect(tmp_path, capsys):
    # the flag stays for the benchmark's command lines: any value from 1
    # up writes the same reports, and 0 is still rejected
    blobs = []
    for pts in ("1", "500"):
        out_dir = tmp_path / pts
        code, _, _ = run_cli(
            ["experiment", "best-direction", "--kind", "horizontal-line",
             "--delta", "0.25", "--directions", "4", "--points-per-ball",
             pts, "--out-dir", str(out_dir)], capsys)
        assert code == 0
        blobs.append({ext: (out_dir / ("best_direction" + ext)).read_bytes()
                      for ext in (".json", ".csv", ".svg")})
    assert blobs[0] == blobs[1]
    code, stdout, stderr = run_cli(
        ["experiment", "best-direction", "--kind", "horizontal-line",
         "--delta", "0.25", "--points-per-ball", "0",
         "--out-dir", str(tmp_path / "zero")], capsys)
    assert stdout == ""
    assert_one_error_line(code, stderr)
    assert "--points-per-ball" in stderr
