"""The benchmark's four workloads: set-up, inputs, one op, and output checks.

Each workload loads a different layer of cqms (see README.md).  Nothing here
imports cqms at module level: ``setup`` does, so that the import is part of
the timed set-up.  Ops drive the program only through its public entry
points: ``cqms.cli.main`` in-process, and the library functions for
``certified``.
"""

from __future__ import annotations

import csv
import importlib
import importlib.util
import io as text_io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))

SLACK = 1e-9             # inequality slack of the sampled diagnostics and optimized states
REF_TOL = 1e-12          # agreement with the reference canonical bounds
CSV_REL_TOL = 1e-11      # one unit in the 12th significant digit the sweep CSV prints
CERTIFIED_ORDER = 24


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[], SimpleNamespace]                    # timed as setup_s
    prepare: Callable[[SimpleNamespace, Path, int], object]  # writes inputs; untimed
    run: Callable[[SimpleNamespace, object], object]        # one op
    check: Callable[[object], list[str]]                    # problems in one op's output


def _modules(*names: str) -> SimpleNamespace:
    return SimpleNamespace(**{name: importlib.import_module(f"cqms.{name}") for name in names})


def _cli_setup() -> SimpleNamespace:
    return _modules("cli", "io", "groups")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _cyclic_file(m, path: Path, n: int) -> str:
    m.io.dump_group_file(str(path), m.groups.cyclic_table(n), metric=m.groups.arc_metric(n))
    return str(path)


def _s3_length_file(m, path: Path) -> str:
    table = m.groups.s3_table()
    length = m.groups.symmetric_word_length(table, m.groups.s3_word_generators())
    m.io.dump_group_file(str(path), table, length=length)
    return str(path)


def _kp8_file(m, path: Path) -> str:
    spec = importlib.util.spec_from_file_location("kp8_example", ROOT / "tests" / "kp8_example.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    algebra, irreps = module.build_kp8()
    m.io.dump_quantum_group_file(str(path), algebra, irreps)
    return str(path)


def _cli_op(m, argv_and_output):
    argv, output = argv_and_output
    code = m.cli.main(argv)
    text = Path(output).read_text(encoding="utf-8") if Path(output).exists() else ""
    Path(output).unlink(missing_ok=True)
    return code, text


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_sweep(output, reference: dict, state: str) -> list[str]:
    """Problems in one ``cqms sweep`` result against the canonical reference chain."""
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    rows = list(csv.DictReader(text_io.StringIO(text)))
    ids = [row["lambda_id"] for row in rows]
    if ids != reference["lambda_id"]:
        return [f"chain levels {ids} differ from {reference['lambda_id']}"]
    problems = []
    bounds = [float(row["bound_B"]) for row in rows]
    for level, (row, bound, ref) in enumerate(zip(rows, bounds, reference["bound_B"])):
        if state == "canonical" and abs(bound - ref) > REF_TOL + CSV_REL_TOL * abs(ref):
            problems.append(f"level {level}: bound_B {bound!r} differs from reference {ref!r}")
        if state == "optimized" and bound > ref + SLACK:
            problems.append(f"level {level}: optimized bound_B {bound!r} exceeds canonical {ref!r}")
        if float(row["c1_max_residual"]) > SLACK:
            problems.append(f"level {level}: c1_max_residual {row['c1_max_residual']} > {SLACK}")
        for col in ("n1_hausdorff_lower", "n2_hausdorff_lower"):
            if float(row[col]) > bound + SLACK:
                problems.append(f"level {level}: {col} {row[col]} exceeds bound_B {bound!r}")
        if float(row["diam_lower"]) > float(row["diam_upper"]):
            problems.append(f"level {level}: diam_lower {row['diam_lower']} > diam_upper")
    problems += _chain_shape(bounds, monotone=state == "canonical")
    return problems


def check_chain(bounds, reference: dict) -> list[str]:
    """Problems in one certified pass: reference agreement, monotone, ends at 0."""
    bounds = [float(b) for b in bounds]
    if len(bounds) != len(reference["bound_B"]):
        return [f"{len(bounds)} levels, expected {len(reference['bound_B'])}"]
    problems = [f"level {level}: bound_B {bound!r} differs from reference {ref!r}"
                for level, (bound, ref) in enumerate(zip(bounds, reference["bound_B"]))
                if abs(bound - ref) > REF_TOL]
    return problems + _chain_shape(bounds, monotone=True)


def _chain_shape(bounds: list[float], monotone: bool) -> list[str]:
    problems = []
    if monotone and any(later > earlier for earlier, later in zip(bounds, bounds[1:])):
        problems.append(f"chain is not non-increasing: {bounds}")
    if not bounds or bounds[-1] != 0.0:
        problems.append(f"chain does not end at 0: {bounds[-1:]}")
    return problems


def check_validation(outputs) -> list[str]:
    """Problems in the ``cqms check --pw`` results: each exits 0 and passes every axiom."""
    problems = []
    for label, (code, text) in outputs:
        if code != 0:
            problems.append(f"{label}: exit code {code}")
        elif "all axioms pass" not in text:
            problems.append(f"{label}: output does not report 'all axioms pass'")
    return problems


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _sweep_prepare(m, outdir: Path, seed: int):
    path = _cyclic_file(m, outdir / "z8.json", 8)
    out = str(outdir / "sweep.csv")
    return ["sweep", "--input", path, "--seed", str(seed), "--output", out], out


def _optimized_prepare(m, outdir: Path, seed: int):
    path = _s3_length_file(m, outdir / "s3_length.json")
    out = str(outdir / "optimized.csv")
    return ["sweep", "--input", path, "--state", "optimized", "--samples", "5",
            "--seed", str(seed), "--output", out], out


def _check_prepare(m, outdir: Path, seed: int):
    inputs = [("F(Z_12)", _cyclic_file(m, outdir / "z12.json", 12)),
              ("C*(S_3)", _s3_length_file(m, outdir / "s3_length.json")),
              ("kp8", _kp8_file(m, outdir / "kp8.json"))]
    out = str(outdir / "check.txt")
    return [(label, ["check", "--pw", "--input", path, "--seed", str(seed), "--output", out], out)
            for label, path in inputs]


def _check_run(m, commands):
    return [(label, _cli_op(m, (argv, out))) for label, argv, out in commands]


def _certified_setup() -> SimpleNamespace:
    m = _modules("chains", "compress", "corep", "groups", "hopf", "lipnorm", "mkdist")
    n = CERTIFIED_ORDER
    m.g = m.hopf.function_algebra(m.groups.cyclic_table(n), metric=m.groups.arc_metric(n))
    m.irreps = m.corep.default_irreps(m.g)
    m.lip = m.lipnorm.lip_from_metric(m.g)
    m.dec = m.corep.pw_decompose(m.g, m.irreps, tol=1e-10)
    return m


def _certified_run(m, seed: int) -> list[float]:
    """The certified part of a sweep row at every level, without sampled diagnostics."""
    bounds = []
    for level, subset in enumerate(m.chains.frequency_chain(CERTIFIED_ORDER)):
        ts = m.compress.truncate(m.g, m.irreps, subset, dec=m.dec)
        m.compress.induced_coaction(m.g, ts, "right")
        m.compress.induced_coaction(m.g, ts, "left")
        density = m.compress.canonical_symbol_state(m.g, ts)
        bounds.append(m.mkdist.truncation_bound(m.g, ts, m.lip, density,
                                                check_invariant=level == 0, seed=seed))
    return bounds


WORKLOADS = {w.name: w for w in [
    Workload("sweep", "cqms sweep on F(Z_8), the paper's experiment; loads lipnorm "
             "(numerical radius in the sampled c1 diagnostic)",
             _cli_setup, _sweep_prepare, _cli_op,
             lambda out: check_sweep(out, REFERENCES["sweep"], "canonical")),
    Workload("certified", "certified bound_B chain on F(Z_24) through the library, no "
             "sampled diagnostics; loads compress (induced coactions) and large LPs",
             _certified_setup, lambda m, outdir, seed: seed, _certified_run,
             lambda out: check_chain(out, REFERENCES["certified"])),
    Workload("check", "cqms check --pw on F(Z_12), C*(S_3) and the 8-dim quantum "
             "example; loads hopf axiom validation, no LP and no numerical radius",
             _cli_setup, _check_prepare, _check_run, check_validation),
    Workload("optimized", "cqms sweep --state optimized on C*(S_3); loads simplex and "
             "mkdist with thousands of small LPs and disc-cut refinement",
             _cli_setup, _optimized_prepare, _cli_op,
             lambda out: check_sweep(out, REFERENCES["optimized"], "optimized")),
]}
