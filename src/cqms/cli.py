"""Command-line harness: validation, Peter-Weyl checks, truncations, bounds, sweeps.

Exit codes: 0 success, 2 validation failure, 3 config error, 4 numeric
certification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import chains, compress, corep, groups, hopf, io, lipnorm, mkdist, sampling
from .errors import (
    CertificationError,
    CompletenessError,
    ConfigError,
    CqmsError,
    DegenerateKernelError,
    GroupTableError,
    InternalInconsistencyError,
    LengthError,
    MetricError,
    NotAQuantumGroupError,
    SchurError,
    StateCertificationError,
    StructureError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_VALIDATION_ERRORS = (io.ParseError, GroupTableError, MetricError, LengthError,
                      StructureError, NotAQuantumGroupError, StateCertificationError,
                      CompletenessError, SchurError)
_NUMERIC_ERRORS = (CertificationError, InternalInconsistencyError, DegenerateKernelError)

CSV_COLUMNS = ["lambda_id", "dim_sys", "bound_B", "criterion_r", "diam_lower",
               "diam_upper", "c1_max_residual", "n1_hausdorff_lower",
               "n2_hausdorff_lower", "runtime_ms"]


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    close_out = False
    try:
        if args.output:
            out = open(args.output, "w", encoding="utf-8")
            close_out = True
        code = args.handler(args, out)
    except _VALIDATION_ERRORS as exc:
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
    finally:
        if close_out:
            out.close()
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqms",
                                     description="finite quantum groups as compact quantum metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="group or quantum-group JSON file")
        p.add_argument("--seminorm", default="auto",
                       help="metric | length | file:PATH | auto (default)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=["csv", "text"], default="csv")

    p_check = sub.add_parser("check", help="validate the Hopf axioms and the invariant state")
    common(p_check)
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--pw", action="store_true", help="also validate the irreducible family")
    p_check.set_defaults(handler=cmd_check)

    p_pw = sub.add_parser("pw", help="validate the Peter-Weyl decomposition")
    common(p_pw)
    p_pw.set_defaults(handler=cmd_pw)

    p_trunc = sub.add_parser("truncate", help="build one truncation and certify its coactions")
    common(p_trunc)
    p_trunc.add_argument("--tol", type=float, default=1e-9)
    p_trunc.add_argument("--lambda", dest="lam", required=True, help="irrep indices '0,1,5' or 'all'")
    p_trunc.set_defaults(handler=cmd_truncate)

    p_bound = sub.add_parser("bound", help="certified distance bound for one truncation")
    common(p_bound)
    p_bound.add_argument("--lambda", dest="lam", required=True)
    p_bound.add_argument("--state", choices=["canonical", "optimized", "explicit"],
                         default="canonical")
    p_bound.add_argument("--vector", default=None, help="comma-separated entries for --state explicit")
    p_bound.set_defaults(handler=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="bounds along an increasing chain of truncations")
    common(p_sweep)
    p_sweep.add_argument("--chain", default="auto",
                         help="auto | prefix | freq | semicolon list '0;0,1,7;all'")
    p_sweep.add_argument("--state", choices=["canonical", "optimized"], default="canonical")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------

def _load(args) -> tuple[io.LoadedInput, list]:
    family = "auto"
    if args.seminorm == "metric":
        family = "function"
    elif args.seminorm == "length":
        family = "group"
    loaded = io.load_input(args.input, family=family)
    return loaded, loaded.irreps_or_default()


def _seminorm(args, loaded: io.LoadedInput) -> lipnorm.PolyhedralSeminorm:
    g = loaded.algebra
    spec = args.seminorm
    if spec.startswith("file:"):
        data = io._load_json(spec[5:])
        funcs = io._as_complex(data["functionals"])
        weights = np.asarray(data["weights"], dtype=float)
        return lipnorm.PolyhedralSeminorm(functionals=funcs, weights=weights, label="custom")
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


def _parse_chain(text: str, loaded: io.LoadedInput, irreps) -> list:
    g = loaded.algebra
    count = len(irreps)
    if text == "auto":
        if g.kind == "function" and g.group_table is not None \
                and groups.is_cyclic_canonical(g.group_table):
            return chains.frequency_chain(g.dim)
        if g.kind == "group" and g.length is not None:
            return chains.length_chain(g)
        return chains.prefix_chain(count)
    if text == "freq":
        if not (g.kind == "function" and g.group_table is not None
                and groups.is_cyclic_canonical(g.group_table)):
            raise ConfigError("frequency chains need the canonical cyclic function algebra")
        return chains.frequency_chain(g.dim)
    if text == "prefix":
        return chains.prefix_chain(count)
    return [_parse_lambda(part, count) for part in text.split(";") if part.strip()]


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
    loaded, irreps = _load(args)
    g = loaded.algebra
    report = hopf.check_axioms(g, tol=args.tol)
    print(f"algebra: {g.label or args.input} (dim {g.dim})", file=out)
    print(report, file=out)
    code = EXIT_OK if report.passed else EXIT_VALIDATION
    haar = hopf.haar_state(g, tol=max(args.tol, 1e-9))
    print(f"invariant state certified (min witness eigenvalue {haar.min_eig:.3e})", file=out)
    if args.pw:
        dec = corep.pw_decompose(g, irreps, tol=1e-10)
        total = sum(pi.dim ** 2 for pi in dec.irreps)
        print(f"peter-weyl: {len(dec.irreps)} irreps, sum d^2 = {total} = dim, blocks orthogonal",
              file=out)
    if report.passed:
        print(f"all axioms pass (max residual {report.max_residual:.1e})", file=out)
    else:
        print(f"axioms FAIL (max residual {report.max_residual:.1e})", file=out)
    return code


def cmd_pw(args, out) -> int:
    loaded, irreps = _load(args)
    g = loaded.algebra
    dec = corep.pw_decompose(g, irreps, tol=1e-10)
    for k, pi in enumerate(dec.irreps):
        rep = corep.validate_corep(g, pi)
        print(f"irrep {k} ({pi.label or 'unnamed'}): dim {pi.dim}, "
              f"unitarity {rep.unitarity_residual:.2e}, corep {rep.corep_residual:.2e}, "
              f"End dim {rep.end_dim}", file=out)
    print(f"complete: sum d^2 = {sum(p.dim ** 2 for p in dec.irreps)} = dim {g.dim}", file=out)
    return EXIT_OK


def cmd_truncate(args, out) -> int:
    loaded, irreps = _load(args)
    g = loaded.algebra
    subset = _parse_lambda(args.lam, len(irreps))
    ts = compress.truncate(g, irreps, subset)
    alpha = compress.induced_coaction(g, ts, "right", tol=max(args.tol, 1e-9))
    beta = compress.induced_coaction(g, ts, "left", tol=max(args.tol, 1e-9))
    cocom = compress.cocommutation_residual(alpha, beta)
    witness = compress.isometry_witness_residual(g, ts, samples=min(args.samples, 50),
                                                 seed=args.seed, amplified_every=10)
    print(f"lambda {_lambda_id(subset)}: rank {ts.rank}, dim_sys {ts.dim_sys}", file=out)
    print(f"coaction residuals: right {alpha.coaction_residual:.2e}, "
          f"left {beta.coaction_residual:.2e}, cocommutation {cocom:.2e}", file=out)
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

        density, _ = compress.optimized_symbol_state(g, ts, objective, seed=seed)
    else:
        vec = config.explicit_vector
        if vec.shape != (ts.rank,):
            raise ConfigError(f"explicit vector must have length {ts.rank}, got {vec.shape}")
        density = np.outer(vec, vec.conj())

    bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=index == 0, seed=seed)
    criterion = mkdist.criterion_bound(mkdist.CriterionInputs(
        diam_x=diam.upper, diam_y=diam.upper, c_phi=1.0, c_psi=1.0, eps_x=bound, eps_y=bound))

    rng = np.random.default_rng(seed)
    sym = compress.symbol_map(ts, alpha, density)
    c1 = -np.inf
    for _ in range(config.samples):
        a = sampling.random_element(g, rng)
        lhs1 = g.opnorm(sym(ts.expand(ts.tau(a))) - a)
        c1 = max(c1, lhs1 - bound * lip.value(a))
        x = ts.tau(a)
        lhs2 = float(np.linalg.norm(ts.tau(sym(ts.expand(x))) - x, 2))
        c1 = max(c1, lhs2 - bound * lipnorm.induced_lip(lip, beta, x, tol=1e-7))

    smoothed = [sym(ts.expand(ts.tau(e))) for e in np.eye(g.dim, dtype=complex)]
    n1 = _hausdorff_lower(g, lip, smoothed, order=1, rng=rng, probes=3, samples=40)
    n2 = _hausdorff_lower(g, lip, smoothed, order=2, rng=rng, probes=3, samples=40)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return {
        "lambda_id": _lambda_id(subset), "dim_sys": ts.dim_sys, "bound_B": bound,
        "criterion_r": criterion, "diam_lower": diam.lower, "diam_upper": diam.upper,
        "c1_max_residual": float(c1), "n1_hausdorff_lower": n1, "n2_hausdorff_lower": n2,
        "runtime_ms": runtime_ms,
    }


def _hausdorff_lower(g, lip, smoothed, order, rng, probes, samples) -> float:
    """Sampled lower-bound proxy for the order-n matrix-state Hausdorff gap.

    For sampled matrix states on A, pair each with its liftable image through
    the symbol map and report the largest certified pairwise lower bound.
    ``smoothed[i]`` is the symbol-map image of the i-th basis element of A.
    """
    worst = 0.0
    for _ in range(probes):
        blocks = sampling.random_matrix_state(g, order, rng)
        composed = np.stack([np.einsum("i,iab->ab", s, blocks) for s in smoothed])
        val = mkdist.matrix_mk_lower_bound(g, lip, order, blocks, composed,
                                           samples=samples, seed=int(rng.integers(2 ** 31)))
        worst = max(worst, val)
    return worst


def cmd_bound(args, out) -> int:
    loaded, irreps = _load(args)
    explicit = None
    if args.state == "explicit":
        if not args.vector:
            raise ConfigError("--state explicit needs --vector")
        explicit = np.array([complex(tok) for tok in args.vector.split(",")])
        norm = np.linalg.norm(explicit)
        if abs(norm - 1.0) > 1e-12:
            print(f"note: explicit vector normalized (norm was {norm:.6g})", file=out)
            explicit = explicit / norm
    config = SweepConfig(
        loaded=loaded, irreps=irreps, seminorm=_seminorm(args, loaded),
        chain=[_parse_lambda(args.lam, len(irreps))], state_mode=args.state,
        explicit_vector=explicit, seed=args.seed, samples=min(args.samples, 100))
    _emit(out, args.format, run_sweep(config))
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    loaded, irreps = _load(args)
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
    chains.check_chain(config.chain)
    dec = corep.pw_decompose(g, config.irreps, tol=1e-10)
    diam = mkdist.diameter_bracket(g, config.seminorm, samples=min(12, 4 + g.dim),
                                   seed=config.seed)
    return [_bound_row(config, index, dec, diam) for index in range(len(config.chain))]


if __name__ == "__main__":
    sys.exit(main())
