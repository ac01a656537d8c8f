import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import eiscong
from eiscong.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_identity_prints_one(capsys):
    code, out, _ = run(capsys, "expand", "--r", "0", "--s", "0", "--t", "0",
                       "--modulus", "7", "--terms", "5")
    assert code == 0
    assert out.strip() == "1"


def test_expand_json_payload(capsys):
    code, out, _ = run(capsys, "--output", "json", "expand", "--r", "0", "--s", "1",
                       "--t", "0", "--modulus", "7", "--terms", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 2, 4]
    assert payload["valuation"] == 0


def test_theta_command_differentiates(capsys):
    code, out, _ = run(capsys, "--output", "json", "theta", "--r", "0", "--s", "1",
                       "--t", "0", "--modulus", "7", "--terms", "3", "--iterations", "2")
    assert code == 0
    payload = json.loads(out)
    # n^2 * a(n): [0, 240, 4*2160] mod 7
    assert payload["coefficients"] == [240 % 7, 4 * 2160 % 7]
    assert payload["valuation"] == 1


def test_find_congruences_rigorous_json(capsys):
    code, out, _ = run(capsys, "--output", "json", "find-congruences", "--r", "0",
                       "--s", "-12", "--t", "1", "--ell", "17", "--rigorous")
    assert code == 0
    payload = json.loads(out)
    assert payload["residues"] == [3, 5, 6, 7, 10, 11, 12, 14]
    assert payload["method"] == "rigorous"
    assert payload["weight"] == 128


def test_find_congruences_heuristic(capsys):
    code, out, _ = run(capsys, "--output", "json", "find-congruences", "--r", "0",
                       "--s", "-1", "--t", "0", "--ell", "3", "--heuristic")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "heuristic"
    assert payload["residues"] == [1, 2]


def test_window_without_heuristic_is_usage_error(capsys):
    code, out, err = run(capsys, "find-congruences", "--r", "0", "--s", "1", "--t", "1",
                         "--ell", "19", "--window", "5")
    assert code == 2
    assert out == ""
    assert "--heuristic" in err


def test_table_and_json_agree_on_residues(capsys):
    _, table_out, _ = run(capsys, "find-congruences", "--r", "0", "--s", "-12",
                          "--t", "1", "--ell", "17")
    _, json_out, _ = run(capsys, "--output", "json", "find-congruences", "--r", "0",
                         "--s", "-12", "--t", "1", "--ell", "17")
    residues = json.loads(json_out)["residues"]
    assert " ".join(map(str, residues)) in table_out


def test_find_congruences_json_round_trips_through_the_cache_reader(capsys):
    from eiscong.scanner import RECORD_FIELDS, record_to_report

    _, out, _ = run(capsys, "--output", "json", "find-congruences", "--r", "0",
                    "--s", "1", "--t", "1", "--ell", "11")
    record = json.loads(out)
    assert tuple(record.keys()) == RECORD_FIELDS
    report = record_to_report(record)
    assert report.ell == 11
    assert report.residues == tuple(range(1, 11))


def test_filtration_command(capsys):
    code, out, _ = run(capsys, "--output", "json", "filtration", "--r", "0", "--s", "-12",
                       "--t", "1", "--ell", "17")
    assert code == 0
    assert json.loads(out)["filtration"] == 128


def test_tate_cycle_command(capsys):
    code, out, _ = run(capsys, "--output", "json", "tate-cycle", "--r", "0", "--s", "-12",
                       "--t", "1", "--ell", "17")
    assert code == 0
    payload = json.loads(out)
    assert payload["low_points"] == [9, 1]
    assert payload["falls"] == [9, 9]


def loaded_by_import(module):
    # a fresh interpreter, so that no other test's imports are in sys.modules
    env = {**os.environ, "PYTHONPATH": str(Path(eiscong.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, eiscong, eiscong.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.strip() == "True"


@pytest.mark.parametrize("module", ["numpy", "sympy"])
def test_package_imports_without_numpy(module):
    assert not loaded_by_import(module)


def test_package_imports_without_multiprocessing():
    # only a sweep with jobs > 1 starts a process pool
    assert not loaded_by_import("multiprocessing")


def test_verbose_tate_cycle_logs_the_cycle_and_its_filtration():
    # a fresh interpreter, so that --verbose configures logging itself
    env = {**os.environ, "PYTHONPATH": str(Path(eiscong.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "eiscong.cli", "--verbose", "tate-cycle",
         "--r", "0", "--s", "-12", "--t", "1", "--ell", "17"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert "eiscong.tate" in proc.stderr
    assert "tate cycle mod 17: tagged weight 128, base filtration 128" in proc.stderr
    assert "base filtration 128" in proc.stdout


def test_a_closed_output_pipe_is_no_error():
    # as `eiscong ... | head -c 10`: the reader closes the pipe mid-output
    env = {**os.environ, "PYTHONPATH": str(Path(eiscong.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "eiscong.cli", "--output", "json", "expand",
         "--r", "0", "--s", "1", "--t", "0", "--modulus", "7", "--terms", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert proc.wait() == 0


def test_verify_theorem_command(capsys, tmp_path):
    code, out, _ = run(capsys, "--output", "json", "--results-dir", str(tmp_path),
                       "verify-theorem", "--r", "0", "--s", "1", "--t", "1",
                       "--remark", "--sample-above", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 19
    assert (tmp_path / "scan-0_1_1.jsonl").exists()


def test_verify_theorem_results_dir_from_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EISCONG_RESULTS_DIR", str(tmp_path / "from-env"))
    code, _, _ = run(capsys, "verify-theorem", "--r", "0", "--s", "0", "--t", "0",
                     "--sample-above", "0")
    assert code == 0
    assert (tmp_path / "from-env" / "scan-0_0_0.jsonl").exists()


def test_verify_table_single_row(capsys):
    code, out, _ = run(capsys, "verify-table", "--row", "1/E4", "--terms", "300")
    assert code == 0
    assert "1/E4" in out


def test_verify_table_reports_the_published_counterexample(capsys):
    code, _, err = run(capsys, "verify-table", "--row", "E2/E6", "--terms", "300")
    assert code == 1
    assert "q^4" in err


def test_verify_table_unknown_row_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-table", "--row", "E8")
    assert code == 2
    assert "unknown table row" in err


def test_a_tilde_json(capsys):
    code, out, _ = run(capsys, "--output", "json", "a-tilde", "--ell", "13")
    assert code == 0
    assert json.loads(out)["terms"] == [[3, 0, 6], [0, 2, 8]]


def test_a_tilde_csv(capsys):
    code, out, _ = run(capsys, "--output", "csv", "a-tilde", "--ell", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,coefficient"
    assert lines[1:] == ["3,0,6", "0,2,8"]


def test_precision_is_derived_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "500", "filtration", "--r", "0", "--s", "-12", "--t", "1",
              "--ell", "17"])
    assert exc.value.code == 2


def test_nonprime_ell_is_usage_error(capsys):
    code, _, err = run(capsys, "find-congruences", "--r", "0", "--s", "1", "--t", "1",
                       "--ell", "15")
    assert code == 2
    code, out, err = run(capsys, "find-congruences", "--r", "0", "--s", "1", "--t", "1",
                         "--ell", "9", "--heuristic")
    assert (code, out) == (2, "")
    assert "ell must be a prime at least 2, got 9" in err


@pytest.mark.parametrize("window", ["0", "-5"])
def test_heuristic_window_below_one_is_usage_error(capsys, window):
    code, out, err = run(capsys, "find-congruences", "--r", "0", "--s", "-1", "--t", "0",
                         "--ell", "3", "--heuristic", "--window", window)
    assert (code, out) == (2, "")
    assert "usage error" in err


def test_negative_iterations_is_usage_error(capsys):
    code, out, err = run(capsys, "theta", "--r", "0", "--s", "1", "--t", "0",
                         "--modulus", "7", "--iterations", "-2")
    assert (code, out) == (2, "")
    assert "--iterations must be nonnegative, got -2" in err


def test_expand_takes_no_iterations():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--r", "0", "--s", "1", "--t", "0", "--modulus", "7",
              "--iterations", "1"])
    assert exc.value.code == 2


def readme_commands():
    """Each `eiscong ...` line of README's "Command line" block, as an argument list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("eiscong ")]


def test_readme_command_lines_run(capsys, tmp_path):
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        code, _, err = run(capsys, "--results-dir", str(tmp_path), *argv)
        # the full table holds the false E2/E6 mod 49 cell
        expected = 1 if argv == ["verify-table", "--terms", "3000"] else 0
        assert code == expected, (argv, err)


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_negative_sample_above_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-theorem", "--r", "0", "--s", "1", "--t", "1",
                       "--sample-above", "-1", "--no-cache")
    assert code == 2
    assert "sample_above must be nonnegative, got -1" in err


def test_successive_main_calls_share_no_state(capsys, tmp_path):
    # successive calls in one process: no call may see another's options or errors
    sweep = ["--results-dir", str(tmp_path), "verify-theorem", "--r", "0", "--s", "1",
             "--t", "1"]
    code, out, _ = run(capsys, "--output", "json", *sweep, "--remark", "--sample-above", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["bound_kind"], payload["bound"]) == ("remark", 19)
    assert len(payload["sampled_above"]) == 1
    code, out, _ = run(capsys, *sweep)
    assert code == 0
    assert out.splitlines()[0].endswith("scanned to the theorem bound 41")
    assert out.count("above bound ell=") == 3
    with pytest.raises(SystemExit) as exc:
        main([*sweep, "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, _, err = run(capsys, *sweep, "--sample-above", "-1")
    assert code == 2
    assert "usage error" in err
    code, out, err = run(capsys, *sweep, "--sample-above", "0")
    assert (code, err) == (0, "")
    assert "above bound" not in out
    assert out.splitlines()[0].endswith("scanned to the theorem bound 41")
