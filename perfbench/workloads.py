"""Workloads of the eiscong benchmark: inputs from a seed, the tasks of one
pass, and the checks that the program's outputs are correct.

Every workload is a batch of independent tasks.  A seed picks the inputs,
but only inside cost classes that are fixed per workload: the time of a
sweep is set by the primes below its bound, that of a Tate cycle by the
prime and the lift weight, so the seed varies the quotients while every
seed asks for the same amount of work.  Otherwise the spread between
seeds, not the code, would decide the measured time.

The package is imported lazily: generating inputs needs only the standard
library, so run.py can build a batch without loading eiscong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("sweep", "table", "tate", "rescan")
DEFAULT_SEED = 0

#: exponent ranges of the sweep and Tate quotients
S_RANGE = range(-20, 5)
T_RANGE = range(-3, 3)

#: sweep cells (r, s, |t|), theorem bounds 75 to 181, far enough apart in cost that
#: task_p50_s stays within the middle cell; the seed picks the sign
#: of t, and of s where both signs are in range.  Signs leave the swept primes
#: and the work per prime unchanged.
SWEEP_CELLS = ((3, 3, 2), (1, -6, 2), (0, -12, 2), (2, -14, 2), (0, -17, 2))

#: Tate cells (ell, r, r + 4s + 6t); every spec of a cell has the same lift weight
TATE_CELLS = ((29, 0, -14), (29, 0, -10), (31, 0, -12))

#: table workload: window of the Berndt-Yee rows, and the wide expansions
TABLE_TERMS = 4000
WIDE_TERMS = 1200
WIDE_MODULI = ((7**12, 49), (3**20, 81))
#: exponents (E2, E4, E6) of the wide expansions: E2 to the power +-1 and E4 or
#: E6 to the opposite power, one inverse and one full product each.  These cost
#: the same within 10%; an exponent 0 on E2 costs up to 20% less or more.
WIDE_EXPONENTS = ((-1, 1, 0), (-1, 0, 1), (1, -1, 0), (1, 0, -1))

#: rescan workload: 63 cached specs with remark bound 25 to 49, three from each
#: of 21 strata of four specs of similar cost, and as misses every one of the 25
#: specs with remark bound at most 13, cheap enough that the results cache and
#: the cli, not the sweeps, dominate.  The misses are the same for every seed:
#: they differ in cost by up to 4x, and a seeded subset would move task_p90_s.
RESCAN_BOUNDS = (25, 49)
RESCAN_STRATA = 21
RESCAN_PER_STRATUM = 3
RESCAN_MISS_BOUND = 13


def _remark_bound(r: int, s: int, t: int) -> int:
    # scanner.remark_bound, copied so that the inputs never depend on the code measured
    total = r + 4 * s + 6 * t
    shared = (abs(s) - 1, abs(t) - 1, 11)
    return max(*shared, 2 * total - 1) if total > 0 else max(*shared, 21 - 8 * s - 12 * t)


def _specs(r: int, keep) -> list[tuple[int, int, int]]:
    return [
        (r, s, t)
        for s in S_RANGE
        for t in T_RANGE
        if (r, s, t) != (0, 0, 0) and keep(r, s, t)
    ]


def sweep_cell(r: int, s: int, t: int) -> list[tuple[int, int, int]]:
    return _specs(r, lambda rr, ss, tt: abs(ss) == abs(s) and abs(tt) == abs(t))


def tate_cell(r: int, total: int) -> list[tuple[int, int, int]]:
    return _specs(r, lambda rr, s, t: rr + 4 * s + 6 * t == total)


def rescan_pool(low: int, high: int) -> list[tuple[int, int, int]]:
    pool = [
        (r, s, t)
        for r in range(3)
        for s in range(-6, 5)
        for t in T_RANGE
        if (r, s, t) != (0, 0, 0) and low <= _remark_bound(r, s, t) <= high
    ]
    return sorted(pool, key=lambda spec: (_remark_bound(*spec), spec))


def generate(workload: str, seed: int) -> list[dict]:
    """The task batch of one pass; the same seed gives the same batch.

    The order of the tasks is fixed, not seeded: tasks of one pass share the
    package's lru_caches, so the task that runs first pays for tables the
    others reuse, and a seeded order would move task_p50_s between seeds.
    """
    rng = random.Random(f"eiscong-bench:{workload}:{seed}")
    if workload == "sweep":
        tasks = [
            {"kind": "sweep", "spec": list(rng.choice(sweep_cell(*cell)))}
            for cell in SWEEP_CELLS
        ]
    elif workload == "table":
        tasks = [{"kind": "row", "index": i} for i in range(9)]
        for modulus, narrow in WIDE_MODULI:
            tasks.append({"kind": "wide", "spec": list(rng.choice(WIDE_EXPONENTS)),
                          "modulus": modulus, "narrow": narrow})
    elif workload == "tate":
        tasks = [
            {"kind": "tate", "spec": list(rng.choice(tate_cell(r, total))), "ell": ell}
            for ell, r, total in TATE_CELLS
        ]
    elif workload == "rescan":
        pool = rescan_pool(*RESCAN_BOUNDS)
        size = len(pool) // RESCAN_STRATA
        cached = [
            spec
            for i in range(RESCAN_STRATA)
            for spec in rng.sample(pool[i * size:(i + 1) * size], RESCAN_PER_STRATUM)
        ]
        missing = rescan_pool(0, RESCAN_MISS_BOUND)
        tasks = [{"kind": "rescan", "spec": list(spec), "cached": True} for spec in cached]
        tasks += [{"kind": "rescan", "spec": list(spec), "cached": False} for spec in missing]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return tasks


# ----------------------------------------------------------------------
# running one task (inside a pass, in a fresh interpreter)


def _reports(records) -> list[list]:
    return [[rec["ell"], rec["method"], list(rec["residues"])] for rec in records]


def _sweep_outcome(spec, bound, reports, above) -> dict:
    return {"spec": list(spec), "bound": bound, "reports": reports, "above": above}


def rescan_argv(spec, results_dir: str) -> list[str]:
    r, s, t = spec
    return [
        "--output", "json", "--results-dir", results_dir, "verify-theorem",
        "--r", str(r), "--s", str(s), "--t", str(t), "--remark",
    ]


def run_task(task: dict, results_dir: str | None = None) -> dict:
    """Run one task through the package's public functions; return its outcome."""
    import eiscong
    from eiscong import cli

    kind = task["kind"]
    if kind == "sweep":
        result = eiscong.verify_theorem(eiscong.QuotientSpec(*task["spec"]))
        return _sweep_outcome(
            task["spec"],
            result.bound,
            [[rep.ell, rep.method, list(rep.residues)] for rep in result.reports],
            [[rep.ell, rep.method, list(rep.residues)] for rep in result.sampled_above],
        )
    if kind == "rescan":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(rescan_argv(task["spec"], results_dir))
        if code != 0:
            return {"spec": task["spec"], "exit": code}
        payload = json.loads(out.getvalue())
        return _sweep_outcome(
            task["spec"],
            payload["bound"],
            _reports(payload["reports"]),
            _reports(payload["sampled_above"]),
        )
    if kind == "row":
        row = eiscong.BERNDT_YEE_TABLE[task["index"]]
        try:
            (summary,) = eiscong.verify_table((row,), terms=TABLE_TERMS)
        except eiscong.CounterexampleError as exc:
            return {"index": task["index"], "counterexample": str(exc)}
        return {"index": task["index"], "checked": summary["checked"]}
    if kind == "wide":
        series = eiscong.eisenstein_power_product(
            *task["spec"], task["modulus"], WIDE_TERMS
        )
        return {
            "spec": task["spec"],
            "modulus": task["modulus"],
            "valuation": series.valuation,
            "coeffs": list(series.coeffs),
        }
    if kind == "tate":
        spec = eiscong.QuotientSpec(*task["spec"])
        ell = task["ell"]
        lifted = eiscong.replacement_lift(spec, ell, eiscong.profile_precision(spec, ell))
        profile = eiscong.tate_cycle(eiscong.ModularFormModEll.from_lift(lifted))
        return {
            "spec": task["spec"],
            "ell": ell,
            "weight": profile.base_weight,
            "base_filtration": profile.base_filtration,
            "filtrations": list(profile.filtrations),
            "high_points": list(profile.high_points),
            "low_points": list(profile.low_points),
            "falls": list(profile.falls),
        }
    raise ValueError(f"unknown task kind {kind!r}")


def golden_form(outcome: dict) -> dict:
    """The part of an outcome kept in the golden file (wide series by digest)."""
    if "coeffs" not in outcome:
        return outcome
    digest = hashlib.sha256(json.dumps(outcome["coeffs"]).encode()).hexdigest()
    return {k: v for k, v in outcome.items() if k != "coeffs"} | {"sha256": digest}


# ----------------------------------------------------------------------
# seed-independent checks (run by run.py after the passes)

#: window of the heuristic cross-check of certified residues
HEURISTIC_WINDOW = 1000


def _check_sweep(outcome: dict) -> list[str]:
    import eiscong
    from sympy import nextprime, primerange

    problems = []
    r, s, t = outcome["spec"]
    spec = eiscong.QuotientSpec(r, s, t)
    bound = outcome["bound"]
    primes = [ell for ell, _, _ in outcome["reports"]]
    if primes != [int(p) for p in primerange(5, bound + 1)]:
        problems.append(f"{spec}: swept primes are not those from 5 to {bound}")
    above = [ell for ell, _, _ in outcome["above"]]
    if not above or above[0] != nextprime(bound):
        problems.append(f"{spec}: no sample just above the bound {bound}")
    for ell, method, residues in outcome["above"]:
        if residues:
            problems.append(f"{spec}: prime {ell} above the bound reports {residues}")
    for ell, method, residues in outcome["reports"]:
        if method == "below-bound-by-size":
            if ell + s >= 0 and ell + t >= 0:
                problems.append(f"{spec}: ell={ell} wrongly disposed of by size")
            continue
        if method == "theta-vanishing" and residues != list(range(1, ell)):
            problems.append(f"{spec}: theta-vanishing at {ell} lists {residues}")
        if method not in ("rigorous", "theta-vanishing"):
            problems.append(f"{spec}: unexpected method {method!r} at ell={ell}")
        if residues:
            window = eiscong.quotient_series(spec, ell, HEURISTIC_WINDOW)
            flagged = eiscong.heuristic_simple_congruences(window, ell)
            if not set(residues) <= flagged:
                problems.append(
                    f"{spec}: certified residues {residues} mod {ell} not all flagged "
                    f"on a {HEURISTIC_WINDOW}-term window"
                )
    return problems


def _check_row(outcome: dict) -> list[str]:
    import eiscong

    row = eiscong.BERNDT_YEE_TABLE[outcome["index"]]
    if (row.name, row.step, row.residue, row.modulus) == ("E2/E6", 8, 4, 49):
        # the published cell is false: a(4) of E2/E6 is 7 mod 49
        expected = "coefficient of q^4 is 7, not 0 mod 49"
        if expected not in outcome.get("counterexample", ""):
            return [f"row {row.name} mod {row.modulus}: expected the q^4 counterexample"]
        return []
    if "counterexample" in outcome:
        return [f"row {row.name} mod {row.modulus}: {outcome['counterexample']}"]
    count = len(range(row.residue, TABLE_TERMS, row.step))
    if outcome["checked"] != count:
        return [f"row {row.name}: checked {outcome['checked']} of {count} coefficients"]
    return []


def _check_wide(outcome: dict, narrow: int) -> list[str]:
    import eiscong

    wide = eiscong.TruncatedSeries(outcome["modulus"], outcome["coeffs"], outcome["valuation"])
    small = eiscong.eisenstein_power_product(*outcome["spec"], narrow, WIDE_TERMS)
    if wide.precision != WIDE_TERMS or wide.change_modulus(narrow) != small:
        return [f"{outcome['spec']} mod {outcome['modulus']}: disagrees mod {narrow}"]
    return []


def _check_tate(outcome: dict) -> list[str]:
    ell, weight = outcome["ell"], outcome["weight"]
    r, s, t = outcome["spec"]
    filts = outcome["filtrations"]
    problems = []
    if weight != (r + 10) * ell + r + 4 * s + 6 * t:
        problems.append(f"lift weight {weight} is not that of {outcome['spec']} at {ell}")
    if len(filts) != ell - 1:
        problems.append(f"{len(filts)} filtrations for ell={ell}")
    if (outcome["base_filtration"] - weight) % (ell - 1):
        problems.append("base filtration not congruent to the weight mod ell - 1")
    # the i-th theta iterate has weight k + i(ell + 1), i.e. k + 2i mod ell - 1
    for i, w in enumerate(filts, start=1):
        if (w - weight - 2 * i) % (ell - 1) or w > weight + i * (ell + 1):
            problems.append(f"filtration {w} of iterate {i} is impossible")
            break
    if len(outcome["low_points"]) not in (1, 2):
        problems.append(f"{len(outcome['low_points'])} low points")
    return problems


def check(task: dict, outcome: dict) -> list[str]:
    """Seed-independent problems with one task's outcome; empty when it is correct."""
    if "error" in outcome:
        return [outcome["error"]]
    if "exit" in outcome:
        return [f"{task['spec']}: cli exited with {outcome['exit']}"]
    kind = task["kind"]
    if kind in ("sweep", "rescan"):
        return _check_sweep(outcome)
    if kind == "row":
        return _check_row(outcome)
    if kind == "wide":
        return _check_wide(outcome, task["narrow"])
    return _check_tate(outcome)
