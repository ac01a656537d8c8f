"""The command line's exact outputs, pinned in `cli_corpus.json`.

Each case is one command line: its stdout, its stderr, its exit code and
every file it writes or changes under the results directories.  The
cases run in order in one temporary directory, so a sweep's second run
reads the records its first run wrote.  Start and finish times and
timings of the form `0.0123 s` are masked, and so is the temporary
directory.  Every case runs through `cli.main` in this process, which
logs each call at that call's own level to that call's stderr.

The corpus changes only when an output is meant to change.  To rewrite
it, run `PYTHONPATH=src python tests/test_cli_corpus.py`.
"""

import io
import json
import os
import re
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from eiscong.cli import main
from eiscong.scanner import RESULTS_DIR_ENV

CORPUS = Path(__file__).with_name("cli_corpus.json")

SPEC = "--r 0 --s -12 --t 1"
WEIGHT_TEN = "--r 0 --s 1 --t 1"
CASES = [
    "expand --r 0 --s 1 --t 0 --modulus 7 --terms 10",
    "--output json expand --r 1 --s -2 --t 1 --modulus 49 --terms 8",
    "--output csv expand --r 0 --s 1 --t 0 --modulus 7 --terms 5",
    "theta --r 0 --s 1 --t 0 --modulus 7 --terms 6 --iterations 2",
    "--output json theta --r 2 --s 0 --t -1 --modulus 27 --terms 6 --iterations 0",
    "--output csv theta --r 0 --s -1 --t 0 --modulus 9 --terms 6",
    "theta --r 0 --s 1 --t 0 --modulus 7 --iterations -2",
    "expand --r 0 --s 1 --t 0 --modulus 7 --iterations 1",
    f"filtration {SPEC} --ell 17",
    "--output json filtration --r 1 --s 1 --t 0 --ell 13",
    f"--output csv filtration {WEIGHT_TEN} --ell 11",
    f"tate-cycle {SPEC} --ell 17",
    f"--output json tate-cycle {WEIGHT_TEN} --ell 13",
    f"--output csv tate-cycle {SPEC} --ell 17",
    f"tate-cycle {WEIGHT_TEN} --ell 13 --cap 11",
    f"find-congruences {SPEC} --ell 17",
    f"--output json find-congruences {WEIGHT_TEN} --ell 19 --rigorous",
    f"--output csv find-congruences {WEIGHT_TEN} --ell 11",
    "find-congruences --r 0 --s -30 --t -29 --ell 11",
    "find-congruences --r 0 --s 1 --t 1 --ell 3",
    "--output csv find-congruences --r 0 --s -1 --t 0 --ell 3 --heuristic",
    f"--output json find-congruences {SPEC} --ell 7 --heuristic --window 200",
    f"find-congruences {WEIGHT_TEN} --ell 19 --window 5",
    f"find-congruences {WEIGHT_TEN} --ell 15",
    "find-congruences --r 0 --s -1 --t 0 --ell 3 --heuristic --window 0",
    f"--results-dir {{tmp}}/flag verify-theorem {WEIGHT_TEN} --remark --sample-above 1",
    f"--output json --results-dir {{tmp}}/flag verify-theorem {WEIGHT_TEN} --remark "
    "--sample-above 1",
    f"--output csv --results-dir {{tmp}}/flag verify-theorem {WEIGHT_TEN} --remark "
    "--sample-above 2",
    "verify-theorem --r 0 --s 0 --t 0 --sample-above 2",
    f"--output csv verify-theorem {SPEC} --no-cache --sample-above 0",
    f"verify-theorem {WEIGHT_TEN} --no-cache --sample-above -1",
    f"--results-dir {{tmp}}/flag/scan-0_1_1.jsonl/sub verify-theorem {WEIGHT_TEN}",
    "verify-table --row 1/E4 --terms 300",
    "--output json verify-table --row E2/E4 --terms 200",
    "--output csv verify-table --row 1/E6 --terms 200",
    "verify-table --row E2/E6 --terms 300",
    "verify-table --row E8",
    "a-tilde --ell 13",
    "--output json a-tilde --ell 17",
    "--output csv a-tilde --ell 13",
    "a-tilde --ell 9",
    "",
    f"--precision 500 filtration {SPEC} --ell 17",
    f"--verbose --results-dir {{tmp}}/verbose verify-theorem {WEIGHT_TEN} --remark",
    f"--verbose --results-dir {{tmp}}/verbose verify-theorem {WEIGHT_TEN} --remark",
    f"--verbose find-congruences {SPEC} --ell 17",
    f"--verbose tate-cycle {WEIGHT_TEN} --ell 13",
    "--verbose verify-table --row 1/E6 --terms 300",
    f"--jobs 0 verify-theorem {WEIGHT_TEN} --no-cache",
    "filtration --r 0 --s 1 --t 0 --ell -5",
    "tate-cycle --r 0 --s -20 --t 1 --ell 7",
]

MASKS = [
    (re.compile(r'"(started_at|finished_at)": "[^"]*"'), r'"\1": "<time>"'),
    (re.compile(r"\d+\.\d{4} s"), "<seconds> s"),
]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _files(tmp):
    return {str(p.relative_to(tmp)): p.read_text(encoding="utf-8")
            for p in sorted(tmp.rglob("*")) if p.is_file()}


def _mask(text, tmp):
    text = text.replace(str(tmp), "{tmp}")
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return text


def run_corpus(tmp):
    """Every case's outputs, run in order in `tmp`.

    Expects COLUMNS=80 and the results-directory variable set to `tmp`/env
    in the environment.
    """
    entries = []
    for line in CASES:
        argv = shlex.split(line.replace("{tmp}", str(tmp)))
        before = _files(tmp)
        code, out, err = _in_process(argv)
        written = {name: _mask(text, tmp) for name, text in _files(tmp).items()
                   if before.get(name) != text}
        entries.append({"argv": line, "exit": code, "stdout": _mask(out, tmp),
                        "stderr": _mask(err, tmp), "written": written})
    return entries


def test_command_line_outputs_match_the_corpus(tmp_path, monkeypatch):
    # argparse wraps its usage text at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv(RESULTS_DIR_ENV, str(tmp_path / "env"))
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in expected]
    for g, e in zip(got, expected):
        assert g == e


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.environ["COLUMNS"] = "80"
        os.environ[RESULTS_DIR_ENV] = str(Path(scratch) / "env")
        corpus = run_corpus(Path(scratch))
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
