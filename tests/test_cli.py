import importlib
import json
import logging
import os
import shlex
import subprocess
import sys
import types
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
    assert tuple(record.keys()) == tuple(RECORD_FIELDS)
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


def count_calls(monkeypatch, targets):
    """Wrap each (module, name) wherever an eiscong module binds it; returns the counts."""
    calls = {}
    for module_name, name in targets:
        original = getattr(importlib.import_module(module_name), name)
        calls[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "eiscong" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("argv", [
    "filtration --r 2 --s -3 --t 1 --ell 41",
    "--output json tate-cycle --r 1 --s -5 --t -2 --ell 43",
    "a-tilde --ell 47",
])
def test_polynomial_commands_expand_and_solve_nothing(capsys, monkeypatch, argv):
    # A~ is cached per prime; a cache filled by a solve would hide one here
    filtration_module = sys.modules["eiscong.filtration"]
    filtration_module.compute_a_tilde.cache_clear()
    filtration_module._b_tilde.cache_clear()
    calls = count_calls(monkeypatch, [
        ("eiscong.filtration", "represent"),
        ("eiscong.linalg", "solve_mod_prime"),
        ("eiscong.eisenstein", "eisenstein_power_product"),
    ])
    code, out, _ = run(capsys, *argv.split())
    assert code == 0 and out
    assert calls == {"represent": 0, "solve_mod_prime": 0, "eisenstein_power_product": 0}


def test_tate_cycle_refuses_a_prime_above_the_cap_before_building_the_lift(
    capsys, monkeypatch
):
    calls = count_calls(monkeypatch, [("eiscong.filtration", "_lift_polynomial")])
    code, out, err = run(capsys, "tate-cycle", "--r", "3", "--s", "1", "--t", "1",
                         "--ell", "100003")
    assert (code, out, calls) == (2, "", {"_lift_polynomial": 0})
    assert err == (
        "usage error: cycle profiling is capped at ell <= 200; raise the cap to 100003 to "
        "profile it\n"
    )
    # a composite or a prime without a lift is refused for that first
    code, _, err = run(capsys, "tate-cycle", "--r", "0", "--s", "1", "--t", "1",
                       "--ell", "9", "--cap", "5")
    assert (code, err) == (2, "usage error: ell must be a prime at least 5, got 9\n")
    code, _, err = run(capsys, "tate-cycle", "--r", "0", "--s", "-20", "--t", "1",
                       "--ell", "7", "--cap", "5")
    assert code == 2 and "no lift of this shape exists" in err
    assert calls == {"_lift_polynomial": 0}
    # under the cap the lift is built once
    code, _, _ = run(capsys, "tate-cycle", "--r", "0", "--s", "1", "--t", "1", "--ell", "13")
    assert (code, calls) == (0, {"_lift_polynomial": 1})


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    return {**os.environ, "PYTHONPATH": str(Path(eiscong.__file__).parents[1])}


def loaded_by_import(*modules):
    # those of the modules that importing the package loads, read in a fresh
    # interpreter, so that no other test's imports are in sys.modules
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, eiscong, eiscong.cli; print(*(m for m in {modules!r} if m in sys.modules))"],
        capture_output=True, text=True, env=fresh_env(), check=True,
    )
    return proc.stdout.split()


@pytest.mark.parametrize("module", ["numpy", "sympy"])
def test_package_imports_without_numpy(module):
    assert not loaded_by_import(module)


def test_package_imports_without_multiprocessing():
    # only a sweep with jobs > 1 starts a process pool
    assert not loaded_by_import("multiprocessing")


def test_package_imports_without_dataclasses_datetime_or_csv():
    # start-up that every command pays: records are named tuples (dataclasses
    # loads inspect), timestamps come from `time`, and only CSV output loads csv
    assert loaded_by_import("dataclasses", "inspect", "datetime", "csv") == []


def test_submodules_are_not_shadowed_by_reexports():
    # `import eiscong.filtration as m` binds the package attribute, so a
    # re-exported function of the same name would stand in for the module
    code = (
        "import importlib, pkgutil, eiscong.filtration as m, eiscong\n"
        "print(m.__name__, m.represent.__name__, m.filtration.__name__)\n"
        "for info in pkgutil.iter_modules(eiscong.__path__):\n"
        "    module = importlib.import_module('eiscong.' + info.name)\n"
        "    print(info.name, getattr(eiscong, info.name) is module)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=fresh_env(), check=True)
    first, *rest = proc.stdout.splitlines()
    assert first == "eiscong.filtration represent filtration"
    assert len(rest) == 8
    assert all(line.endswith(" True") for line in rest), rest


def test_the_library_surface_is_pinned():
    # every public name the package exports, so that a change to it shows here
    public = sorted(name for name, value in vars(eiscong).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == [
        "BERNDT_YEE_TABLE", "CongruenceReport", "CounterexampleError",
        "IsobaricPolynomial", "ModularFormModEll", "ModulusMismatchError",
        "PrecisionError", "QuotientSpec", "ResultsCache", "ScanResult", "TableRow",
        "TateCycleProfile", "TruncatedSeries", "certificate_precision",
        "certified_residues", "compute_a_tilde", "eisenstein_power_product",
        "eisenstein_series", "heuristic_simple_congruences",
        "lift_weight", "monomial_basis", "monomial_exponents", "profile_precision",
        "quotient_q2_coefficient", "quotient_q_coefficient", "quotient_series",
        "remark_bound", "replacement_lift", "represent", "scan_prime", "sturm",
        "tate_cycle", "theorem_bound", "theta_vanishes",
        "theta_vanishing_prime_candidates", "theta_zero_congruences_hold",
        "verify_table", "verify_theorem",
    ]


def test_the_version_is_stated_once():
    # the results cache's version gate reads __version__; the build reads it too
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "eiscong.__version__"}


def test_verbose_tate_cycle_logs_the_cycle_and_its_filtration(capsys):
    code, out, err = run(capsys, "--verbose", "tate-cycle",
                         "--r", "0", "--s", "-12", "--t", "1", "--ell", "17")
    assert code == 0
    assert "eiscong.tate" in err
    assert "tate cycle mod 17: tagged weight 128, base filtration 128" in err
    assert "base filtration 128" in out


def read_ten_bytes_and_close(*argv):
    # as `eiscong ... | head -c 10`: the reader closes the pipe mid-output;
    # returns the command's stderr and exit code
    proc = subprocess.Popen([sys.executable, "-m", "eiscong.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    return err, proc.wait()


def test_a_closed_output_pipe_is_no_error():
    assert read_ten_bytes_and_close(
        "--output", "json", "expand",
        "--r", "0", "--s", "1", "--t", "0", "--modulus", "7", "--terms", "200000",
    ) == (b"", 0)


def test_a_closed_output_pipe_is_no_error_for_csv():
    # CSV rows are written one by one, straight to stdout
    assert read_ten_bytes_and_close(
        "--output", "csv", "expand",
        "--r", "0", "--s", "1", "--t", "0", "--modulus", "7", "--terms", "200000",
    ) == (b"", 0)


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


def test_an_empty_results_dir_variable_counts_as_unset(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EISCONG_RESULTS_DIR", "")
    code, _, _ = run(capsys, "verify-theorem", "--r", "0", "--s", "0", "--t", "0",
                     "--sample-above", "0")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["results"]
    assert (tmp_path / "results" / "scan-0_0_0.jsonl").exists()


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


def test_successive_main_calls_log_at_their_own_level(capsys):
    # --verbose holds for its own call only, in either order, and each call
    # leaves the root logger's handlers and level as it found them
    root = logging.getLogger()
    found = (list(root.handlers), root.level)
    verbose = ["--verbose", "find-congruences", "--r", "0", "--s", "-12", "--t", "1"]
    assert run(capsys, "a-tilde", "--ell", "13")[2] == ""
    code, _, err = run(capsys, *verbose, "--ell", "17")
    assert code == 0
    assert err.startswith("INFO:eiscong.scanner:scan mod 17: rigorous, ")
    assert (list(root.handlers), root.level) == found
    code, _, err = run(capsys, *verbose, "--ell", "19")
    assert err.startswith("INFO:eiscong.scanner:scan mod 19: rigorous, ")
    code, _, err = run(capsys, *verbose[1:], "--ell", "19")
    assert (code, err) == (0, "")
    assert (list(root.handlers), root.level) == found
