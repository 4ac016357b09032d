"""Command-line harness: validation, Peter-Weyl checks, truncations, bounds, sweeps.

Exit codes: 0 success, 2 validation failure, 3 config error, 4 numeric
certification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import cache
from io import StringIO
from pathlib import Path

import numpy as np

from . import chains, compress, corep, groups, hopf, io, lipnorm, mkdist, sampling
from .errors import (CertificationError, ConfigError, CqmsError, DegenerateKernelError,
                     InternalInconsistencyError)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (CertificationError, InternalInconsistencyError, DegenerateKernelError)

CSV_COLUMNS = ["lambda_id", "dim_sys", "bound_B", "diam_lower", "diam_upper",
               "c1_max_residual", "n1_hausdorff_lower", "n2_hausdorff_lower", "runtime_ms"]


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep request: input, seminorm, chain, state choice, knobs."""

    loaded: io.LoadedInput
    irreps: list
    seminorm: lipnorm.PolyhedralSeminorm
    chain: list
    state_mode: str
    explicit_vector: np.ndarray | None
    seed: int
    samples: int


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = StringIO() if args.output else sys.stdout
    try:
        code = args.handler(args, out)
        if args.output:        # a command that raises leaves the file as it was
            Path(args.output).write_text(out.getvalue(), encoding="utf-8")
    except io.ParseError as exc:          # a ConfigError, but an unreadable input is invalid input
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    except CqmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    return code


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqms",
                                     description="finite quantum groups as compact quantum metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="group or quantum-group JSON file")
        p.add_argument("--seminorm", default="auto",
                       help="metric | length | file:PATH | auto (default)")
        p.add_argument("--output", default=None)

    def sampled(p, samples):
        common(p)
        p.add_argument("--seed", type=int, default=0, help="seed of the sampled checks (default 0)")
        p.add_argument("--samples", type=int, default=samples,
                       help=f"random elements per sampled check (default {samples})")

    def tabulated(p, samples):
        sampled(p, samples)
        p.add_argument("--format", choices=["csv", "text"], default="csv")

    p_check = sub.add_parser("check", help="validate the Hopf axioms and the invariant state")
    common(p_check)
    p_check.add_argument("--seed", type=int, default=0,
                         help="accepted and unused: check draws no random numbers")
    p_check.add_argument("--tol", type=float, default=1e-9,
                         help="axiom and invariant-state tolerance, used as given (default 1e-9)")
    p_check.add_argument("--pw", action="store_true", help="also validate the irreducible family")
    p_check.set_defaults(handler=cmd_check)

    p_pw = sub.add_parser("pw", help="validate the Peter-Weyl decomposition")
    common(p_pw)
    p_pw.set_defaults(handler=cmd_pw)

    p_trunc = sub.add_parser("truncate", help="build one truncation and certify its coactions")
    sampled(p_trunc, 50)
    p_trunc.add_argument("--tol", type=float, default=1e-9,
                         help="coaction certificate tolerance, used as given (default 1e-9)")
    p_trunc.add_argument("--lambda", dest="lam", required=True, help="irrep indices '0,1,5' or 'all'")
    p_trunc.set_defaults(handler=cmd_truncate)

    p_bound = sub.add_parser("bound", help="certified distance bound for one truncation")
    tabulated(p_bound, 100)
    p_bound.add_argument("--lambda", dest="lam", required=True)
    p_bound.add_argument("--state", choices=["canonical", "optimized", "explicit"],
                         default="canonical")
    p_bound.add_argument("--vector", default=None, help="comma-separated entries for --state explicit")
    p_bound.set_defaults(handler=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="bounds along an increasing chain of truncations")
    tabulated(p_sweep, 200)
    p_sweep.add_argument("--chain", default="auto",
                         help="auto | prefix | freq | semicolon list '0;0,1,7;all'")
    p_sweep.add_argument("--state", choices=["canonical", "optimized"], default="canonical")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------

def _load(args) -> io.LoadedInput:
    family = "auto"
    if args.seminorm == "metric":
        family = "function"
    elif args.seminorm == "length":
        family = "group"
    return io.load_input(args.input, family=family)


def _seminorm(args, loaded: io.LoadedInput) -> lipnorm.PolyhedralSeminorm:
    g = loaded.algebra
    spec = args.seminorm
    if spec.startswith("file:"):
        path = spec[5:]
        data = io._load_json(path)
        try:
            funcs = io._as_complex(data["functionals"], (None, g.dim), f"{path}: 'functionals'")
            weights = io._as_real(data["weights"], (None,), f"{path}: 'weights'")
            return lipnorm.PolyhedralSeminorm(functionals=funcs, weights=weights, label="custom")
        except (KeyError, TypeError, ValueError) as exc:
            raise io.ParseError(f"{path}: a seminorm file needs 'functionals' (m x n) and "
                                f"positive 'weights' (m): {exc!r}") from exc
    if spec == "auto":
        spec = "metric" if g.kind == "function" else "length"
    if spec == "metric":
        return lipnorm.lip_from_metric(g)
    if spec == "length":
        return lipnorm.lip_fourier(g)
    raise ConfigError(f"unknown seminorm {spec!r}")


def _parse_lambda(text: str, count: int) -> tuple:
    if text.strip() == "all":
        return tuple(range(count))
    try:
        subset = tuple(sorted(set(int(tok) for tok in text.split(",") if tok.strip() != "")))
    except ValueError as exc:
        raise ConfigError(f"cannot parse irrep subset {text!r}") from exc
    if not subset:
        raise ConfigError("empty irrep subset")
    if subset[0] < 0 or subset[-1] >= count:
        raise ConfigError(f"subset {subset} out of range for {count} irreps")
    return subset


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {tol}")


def _parse_chain(text: str, loaded: io.LoadedInput, irreps) -> list:
    """The chain of irrep subsets, in the indices of ``irreps``.

    Frequency and length levels name irreps as ``corep.default_irreps`` orders them, so each
    is mapped through the order ``corep.character_order`` gives the supplied irreps: a file
    may list them in another order.  Prefix chains and explicit lists keep file order.
    """
    g = loaded.algebra
    count = len(irreps)
    cyclic = g.kind == "function" and g.group_table is not None and groups.is_cyclic_canonical(g.group_table)
    if text == "freq" and not cyclic:
        raise ConfigError("frequency chains need the canonical cyclic function algebra")
    if text in ("auto", "freq") and cyclic:
        levels = chains.frequency_chain(g.dim)
    elif text == "auto" and g.kind == "group" and g.length is not None:
        levels = chains.length_chain(g)
    elif text in ("auto", "prefix"):
        return chains.prefix_chain(count)
    else:
        return [_parse_lambda(part, count) for part in text.split(";") if part.strip()]
    if count != g.dim:                  # not n characters: pw_decompose rejects the family
        return levels
    order = corep.character_order([pi.u for pi in irreps])
    return [tuple(sorted(int(order[k]) for k in level)) for level in levels]


def _emit(out, fmt: str, rows: list[dict]) -> None:
    if fmt == "csv":
        print(",".join(CSV_COLUMNS), file=out)
        for row in rows:
            print(",".join(_format_cell(row.get(col)) for col in CSV_COLUMNS), file=out)
    else:
        for row in rows:
            print("  ".join(f"{col}={_format_cell(row.get(col))}" for col in CSV_COLUMNS
                            if row.get(col) is not None), file=out)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _lambda_id(subset) -> str:
    return "|".join(str(k) for k in subset)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args, out) -> int:
    _check_tol(args.tol)
    loaded = _load(args)
    g = loaded.algebra
    report = hopf.check_axioms(g, tol=args.tol)
    print(f"algebra: {g.label or args.input} (dim {g.dim})", file=out)
    print(report, file=out)
    haar = hopf.haar_state(g, tol=args.tol)
    print(f"invariant state certified (min witness eigenvalue {haar.min_eig:.3e})", file=out)
    if args.pw:
        dec = corep.pw_decompose(g, loaded.irreps_or_default(), tol=1e-10)
        total = sum(pi.dim ** 2 for pi in dec.irreps)
        print(f"peter-weyl: {len(dec.irreps)} irreps, sum d^2 = {total} = dim, blocks orthogonal",
              file=out)
    verdict = "all axioms pass" if report.passed else "axioms FAIL"
    print(f"{verdict} (max residual {report.max_residual:.1e})", file=out)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_pw(args, out) -> int:
    loaded = _load(args)
    irreps = loaded.irreps_or_default()
    g = loaded.algebra
    dec = corep.pw_decompose(g, irreps, tol=1e-10)
    for k, (pi, rep) in enumerate(zip(dec.irreps, dec.reports)):
        print(f"irrep {k} ({pi.label or 'unnamed'}): dim {pi.dim}, "
              f"unitarity {rep.unitarity_residual:.2e}, corep {rep.corep_residual:.2e}", file=out)
    print(f"complete: sum d^2 = {sum(p.dim ** 2 for p in dec.irreps)} = dim {g.dim}", file=out)
    return EXIT_OK


def cmd_truncate(args, out) -> int:
    _check_samples(args.samples)
    _check_tol(args.tol)
    loaded = _load(args)
    irreps = loaded.irreps_or_default()
    g = loaded.algebra
    subset = _parse_lambda(args.lam, len(irreps))
    ts = compress.truncate(g, irreps, subset)
    alpha = compress.induced_coaction(g, ts, "right", tol=args.tol)
    beta = compress.induced_coaction(g, ts, "left", tol=args.tol)
    cocom = compress.cocommutation_residual(alpha, beta)
    witness = compress.isometry_witness_residual(g, ts, samples=args.samples,
                                                 seed=args.seed, amplified_every=10)
    print(f"lambda {_lambda_id(subset)}: rank {ts.rank}, dim_sys {ts.dim_sys}", file=out)
    print(f"coaction residuals: right {alpha.coaction_residual:.2e}, "
          f"left {beta.coaction_residual:.2e}, cocommutation {cocom:.2e}", file=out)
    print(f"counit residuals: right {alpha.counit_residual:.2e}, left {beta.counit_residual:.2e}; "
          f"Podles witnesses: right {alpha.podles_residual:.2e}, left {beta.podles_residual:.2e}",
          file=out)
    print(f"well-definedness {max(alpha.well_definedness_residual, beta.well_definedness_residual):.2e}, "
          f"fixed-point dims {alpha.fixed_space_dim}/{beta.fixed_space_dim}, "
          f"isometry witness {witness:.2e}", file=out)
    return EXIT_OK


def _bound_row(config: SweepConfig, index: int, dec, diam) -> dict:
    start = time.perf_counter()
    g, lip = config.loaded.algebra, config.seminorm
    subset, seed = config.chain[index], config.seed + index
    ts = compress.truncate(g, config.irreps, subset, dec=dec)
    alpha = compress.induced_coaction(g, ts, "right")
    beta = compress.induced_coaction(g, ts, "left")

    if config.state_mode == "canonical":
        density = compress.canonical_symbol_state(g, ts)
    elif config.state_mode == "optimized":
        eps = hopf.counit_state(g)

        def objective(dens):
            pulled = compress.pullback_state(ts, dens)
            result = mkdist.mk_distance(g, lip, pulled, eps, return_result=True)
            return result.value, result.element

        density, _ = compress.optimized_symbol_state(g, ts, objective)
    else:
        vec = config.explicit_vector
        if vec.shape != (ts.rank,):
            raise ConfigError(f"explicit vector must have length {ts.rank}, got {vec.shape}")
        density = np.outer(vec, vec.conj())

    bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=index == 0, seed=seed)

    rng = np.random.default_rng(seed)
    sym = compress.symbol_map(ts, alpha, density)
    elements = sampling.random_elements(g, rng, config.samples)
    taus = ts.tau(elements)
    coords = ts.expand(taus)
    images = sym(coords)
    lhs1 = hopf.element_norms(g, (images - elements)[:, None, None])
    lhs2 = hopf.spectral_norms(ts.tau(images) - taus)
    # the radii only enter multiplied by bound, which is 0 at the full level
    excess = (lipnorm.induced_lip_excess(lip, beta, coords, lhs2, bound, tol=1e-7) if bound
              else np.max(lhs2))
    c1 = max(np.max(lhs1 - bound * lip.value(elements)), excess)

    smoothed = sym(ts.expand(ts.tau(np.eye(g.dim, dtype=complex))))
    n1 = _hausdorff_lower(g, lip, smoothed, order=1, rng=rng, probes=3, samples=40)
    n2 = _hausdorff_lower(g, lip, smoothed, order=2, rng=rng, probes=3, samples=40)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return {
        "lambda_id": _lambda_id(subset), "dim_sys": ts.dim_sys, "bound_B": bound,
        "diam_lower": diam.lower, "diam_upper": diam.upper,
        "c1_max_residual": float(c1), "n1_hausdorff_lower": n1, "n2_hausdorff_lower": n2,
        "runtime_ms": runtime_ms,
    }


def _hausdorff_lower(g, lip, smoothed, order, rng, probes, samples) -> float:
    """Sampled lower-bound proxy for the order-n matrix-state Hausdorff gap.

    For sampled matrix states on A, pair each with its liftable image through
    the symbol map and report the largest certified pairwise lower bound.
    Row i of the (n, n) array ``smoothed`` is the symbol-map image of the
    i-th basis element of A.
    """
    states, seeds = [], []
    for _ in range(probes):                  # each probe's state, then its seed, as drawn one by one
        states.append(sampling.random_matrix_state(g, order, rng))
        seeds.append(int(rng.integers(2 ** 31)))
    blocks = np.stack(states)
    composed = (smoothed @ blocks.reshape(probes, g.dim, -1)).reshape(blocks.shape)
    return mkdist.matrix_mk_lower_bound(g, lip, order, blocks, composed, samples=samples, seed=seeds)


def cmd_bound(args, out) -> int:
    loaded = _load(args)
    irreps = loaded.irreps_or_default()
    explicit, note = None, None
    if args.state == "explicit":
        if not args.vector:
            raise ConfigError("--state explicit needs --vector")
        try:
            explicit = np.array([complex(tok) for tok in args.vector.split(",")])
        except ValueError as exc:
            raise ConfigError(f"cannot parse --vector {args.vector!r}: {exc}") from exc
        norm = np.linalg.norm(explicit)
        if not np.isfinite(norm) or norm == 0.0:
            raise ConfigError(f"--vector must be finite and nonzero, got {args.vector!r}")
        if abs(norm - 1.0) > 1e-12:
            note = f"note: explicit vector normalized (norm was {norm:.6g})"
            explicit = explicit / norm
    config = SweepConfig(
        loaded=loaded, irreps=irreps, seminorm=_seminorm(args, loaded),
        chain=[_parse_lambda(args.lam, len(irreps))], state_mode=args.state,
        explicit_vector=explicit, seed=args.seed, samples=args.samples)
    rows = run_sweep(config)            # print nothing unless every row is computed
    if note:
        print(note, file=out)
    _emit(out, args.format, rows)
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    loaded = _load(args)
    irreps = loaded.irreps_or_default()
    config = SweepConfig(
        loaded=loaded, irreps=irreps, seminorm=_seminorm(args, loaded),
        chain=_parse_chain(args.chain, loaded, irreps), state_mode=args.state,
        explicit_vector=None, seed=args.seed, samples=args.samples)
    _emit(out, args.format, run_sweep(config))
    return EXIT_OK


def run_sweep(config: SweepConfig) -> list[dict]:
    """Validate a sweep configuration and compute one row per chain level.

    Row k uses seed + k, and row 0 also runs the bi-invariance gate.  Rows
    are independent given the per-row seed, so they may be fanned out; here
    they run in chain order.
    """
    g = config.loaded.algebra
    _check_samples(config.samples)
    chains.check_chain(config.chain)
    dec = corep.pw_decompose(g, config.irreps, tol=1e-10)
    diam = mkdist.diameter_bracket(g, config.seminorm, samples=min(12, 4 + g.dim),
                                   seed=config.seed)
    return [_bound_row(config, index, dec, diam) for index in range(len(config.chain))]


if __name__ == "__main__":
    sys.exit(main())
