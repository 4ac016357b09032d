"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import time

import numpy as np
import pytest

from cqms import chains, compress, corep, groups, hopf, lipnorm, mkdist
from cqms.sampling import random_elements, random_state

import oracles


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number:02d}] {status} {name}: {detail}", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def z8_bundle():
    g = hopf.function_algebra(groups.cyclic_table(8), metric=groups.arc_metric(8))
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    lip = lipnorm.lip_from_metric(g)
    return g, irreps, dec, lip


@pytest.fixture(scope="module")
def s3c_bundle():
    table = groups.s3_table()
    length = groups.symmetric_word_length(table, groups.s3_word_generators())
    g = hopf.group_algebra(table, length=length)
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    lip = lipnorm.lip_fourier(g)
    return g, irreps, dec, lip


def test_criterion_01_hopf_validation():
    start = time.perf_counter()
    cases = []
    for n in (2, 4, 8, 12):
        cases.append((f"F(Z_{n})", hopf.function_algebra(groups.cyclic_table(n))))
    cases.append(("F(S_3)", hopf.function_algebra(groups.s3_table())))
    cases.append(("C*(S_3)", hopf.group_algebra(groups.s3_table())))
    cases.append(("C*(Z_4)", hopf.group_algebra(groups.cyclic_table(4))))
    worst = 0.0
    complete = True
    for label, g in cases:
        report = hopf.check_axioms(g, tol=1e-10)
        worst = max(worst, report.max_residual)
        irreps = corep.default_irreps(g)
        complete = complete and sum(p.dim ** 2 for p in irreps) == g.dim
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and complete and elapsed < 5.0
    _report(1, "Hopf validation",
            ok, f"max residual {worst:.2e}, completeness {complete}, {elapsed:.2f} s")


def test_criterion_02_kadison_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_upper = worst_lower = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 13))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w = lipnorm.numerical_radius(m, tol=1e-7)
        nrm = float(np.linalg.norm(m, 2))
        worst_lower = max(worst_lower, w - nrm)
        worst_upper = max(worst_upper, nrm - 2 * w)
    elapsed = time.perf_counter() - start
    ok = worst_lower <= 1e-5 and worst_upper <= 1e-5 and elapsed < 10.0
    _report(2, "Kadison sandwich",
            ok, f"w <= norm residual {worst_lower:.2e}, norm <= 2w residual {worst_upper:.2e}, "
                f"{elapsed:.2f} s")


def test_criterion_03_induced_coaction_certificates(z8_bundle, s3c_bundle):
    worst_well = worst_co = 0.0
    fixed_ok = True
    worst_witness = 0.0
    for (g, irreps, dec, _), chain in (
            (z8_bundle, chains.frequency_chain(8)),
            (s3c_bundle, chains.length_chain(s3c_bundle[0]))):
        for lam in chain:
            ts = compress.truncate(g, irreps, lam, dec=dec)
            alpha = compress.induced_coaction(g, ts, "right")
            beta = compress.induced_coaction(g, ts, "left")
            worst_well = max(worst_well, alpha.well_definedness_residual,
                             beta.well_definedness_residual)
            worst_co = max(worst_co, alpha.coaction_residual, beta.coaction_residual,
                           alpha.counit_residual, beta.counit_residual,
                           compress.cocommutation_residual(alpha, beta))
            fixed_ok = fixed_ok and alpha.fixed_space_dim == 1 and beta.fixed_space_dim == 1
            worst_witness = max(worst_witness, compress.isometry_witness_residual(
                g, ts, samples=50, seed=31, amplified_every=50))
    ok = worst_well < 1e-9 and worst_co < 1e-9 and fixed_ok and worst_witness < 1e-8
    _report(3, "Induced-coaction certificates",
            ok, f"well-definedness {worst_well:.2e}, coaction/counit/cocommutation {worst_co:.2e}, "
                f"fixed-point ranks all 1: {fixed_ok}, isometry witness {worst_witness:.2e}")


def test_criterion_04_morphism_contractivity(z8_bundle, s3c_bundle):
    rng = np.random.default_rng(41)
    worst_tau = worst_sigma = -np.inf
    for (g, irreps, dec, lip), lam in ((z8_bundle, (0, 1, 2, 6, 7)),
                                       (s3c_bundle, (0, 1, 2))):
        ts = compress.truncate(g, irreps, lam, dec=dec)
        alpha = compress.induced_coaction(g, ts, "right")
        density = compress.canonical_symbol_state(g, ts)
        sym = compress.symbol_map(ts, alpha, density)
        for _ in range(100):
            a = random_elements(g, rng, 1)[0]
            worst_tau = max(worst_tau,
                            lipnorm.induced_lip(lip, alpha, ts.tau(a), tol=1e-8)
                            - lip.value(a))
            x = ts.tau(random_elements(g, rng, 1)[0])
            worst_sigma = max(worst_sigma,
                              lip.value(sym(ts.expand(x)))
                              - lipnorm.induced_lip(lip, alpha, x, tol=1e-8))
    ok = worst_tau <= 1e-6 and worst_sigma <= 1e-6
    _report(4, "Morphism contractivity",
            ok, f"compression residual {worst_tau:.2e}, symbol residual {worst_sigma:.2e}")


def test_criterion_05_slice_map_estimate(z8_bundle, s3c_bundle):
    rng = np.random.default_rng(51)
    worst = -np.inf
    for (g, irreps, dec, lip), lam, count in ((z8_bundle, (0, 1, 7), 60),
                                              (s3c_bundle, (0, 1, 2), 40)):
        ts = compress.truncate(g, irreps, lam, dec=dec)
        alpha = compress.induced_coaction(g, ts, "right")
        for _ in range(count):
            x = ts.tau(random_elements(g, rng, 1)[0])
            mu = random_state(g, rng)
            nu = random_state(g, rng)
            coords = ts.expand(x)
            sliced_mu = ts.combine(alpha.slice_states(coords, mu.coeffs[None, :])[0])
            sliced_nu = ts.combine(alpha.slice_states(coords, nu.coeffs[None, :])[0])
            lhs = float(np.linalg.norm(sliced_mu - sliced_nu, 2))
            dist = mkdist.mk_distance(g, lip, mu, nu)
            lip_val = lipnorm.induced_lip(lip, alpha, x, tol=1e-8)
            worst = max(worst, lhs - 2 * dist * lip_val)
    ok = worst <= 1e-6
    _report(5, "Slice-map estimate", ok, f"max residual {worst:.2e} over 100 samples")


def test_criterion_06_prop_c1_inequalities(s3c_bundle):
    g12 = hopf.function_algebra(groups.cyclic_table(12), metric=groups.arc_metric(12))
    irreps12 = corep.default_irreps(g12)
    dec12 = corep.pw_decompose(g12, irreps12)
    lip12 = lipnorm.lip_from_metric(g12)
    rng = np.random.default_rng(61)
    worst = -np.inf
    cases = [(g12, irreps12, dec12, lip12, chains.frequency_chain(12)),
             (s3c_bundle[0], s3c_bundle[1], s3c_bundle[2], s3c_bundle[3],
              chains.length_chain(s3c_bundle[0]))]
    for g, irreps, dec, lip, chain in cases:
        for lam in chain:
            ts = compress.truncate(g, irreps, lam, dec=dec)
            alpha = compress.induced_coaction(g, ts, "right")
            beta = compress.induced_coaction(g, ts, "left")
            density = compress.canonical_symbol_state(g, ts)
            sym = compress.symbol_map(ts, alpha, density)
            bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
            for _ in range(100):
                a = random_elements(g, rng, 1)[0]
                lhs1 = float(np.linalg.norm(g.rho_of(sym(ts.expand(ts.tau(a))) - a), 2))
                worst = max(worst, lhs1 - bound * lip.value(a))
                x = ts.tau(a)
                lhs2 = float(np.linalg.norm(ts.tau(sym(ts.expand(x))) - x, 2))
                worst = max(worst, lhs2 - bound * lipnorm.induced_lip(lip, beta, x, tol=1e-9))
    ok = worst <= 1e-8
    _report(6, "Comparison inequalities along maximal chains",
            ok, f"max residual {worst:.2e} over F(Z_12) and C*(S_3)")


def test_criterion_07_convergence_reproduction():
    start = time.perf_counter()
    g = hopf.function_algebra(groups.cyclic_table(16), metric=groups.arc_metric(16))
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    lip = lipnorm.lip_from_metric(g)
    chain = chains.frequency_chain(16)
    assert len(chain) == 9
    bounds = []
    worst_gap = 0.0
    for k, lam in enumerate(chain):
        ts = compress.truncate(g, irreps, lam, dec=dec)
        density = compress.canonical_symbol_state(g, ts)
        bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
        oracle = oracles.fejer_truncation_bound(16, lam)
        worst_gap = max(worst_gap, abs(bound - oracle))
        bounds.append(bound)
    elapsed = time.perf_counter() - start
    positive = all(b > 1e-3 for b in bounds[:-1])
    final_zero = abs(bounds[-1]) < 1e-8
    finite = all(np.isfinite(bounds))
    ok = positive and final_zero and finite and worst_gap < 1e-8 and elapsed < 60.0
    _report(7, "Convergence reproduction on F(Z_16)",
            ok, f"bounds {['%.4f' % b for b in bounds]}, oracle gap {worst_gap:.2e}, "
                f"{elapsed:.2f} s")


def test_criterion_08_group_case_sandwich(z8_bundle):
    g8, irreps8, dec8, lip8 = z8_bundle
    g3 = hopf.function_algebra(groups.s3_table(), metric=oracles.s3_transposition_metric())
    irreps3 = corep.default_irreps(g3)
    dec3 = corep.pw_decompose(g3, irreps3)
    lip3 = lipnorm.lip_from_metric(g3)
    rng = np.random.default_rng(81)
    worst_low = worst_high = -np.inf
    cases = [(g8, irreps8, dec8, lip8, (0, 1, 7), 25), (g8, irreps8, dec8, lip8, (0, 1, 2, 6, 7), 25),
             (g3, irreps3, dec3, lip3, (0, 2), 25), (g3, irreps3, dec3, lip3, (0, 1, 2), 25)]
    for g, irreps, dec, lip, lam, count in cases:
        ts = compress.truncate(g, irreps, lam, dec=dec)
        alpha = compress.induced_coaction(g, ts, "right")
        beta = compress.induced_coaction(g, ts, "left")
        for _ in range(count):
            x = ts.tau(random_elements(g, rng, 1)[0])
            value = lipnorm.induced_lip_bi(lip, alpha, beta, x, tol=1e-7)
            _, _, both = lipnorm.group_case_seminorms(g, ts, x)
            worst_low = max(worst_low, 0.5 * both - value)
            worst_high = max(worst_high, value - both)
    ok = worst_low <= 1e-5 and worst_high <= 1e-5
    _report(8, "Group-case seminorm sandwich",
            ok, f"lower residual {worst_low:.2e}, upper residual {worst_high:.2e}")


def test_criterion_09_liftable_state_density(z8_bundle):
    g, irreps, dec, lip = z8_bundle
    rng = np.random.default_rng(91)
    targets = [random_state(g, rng) for _ in range(10)]
    chain = chains.frequency_chain(8)
    systems = [compress.truncate(g, irreps, lam, dec=dec) for lam in chain]
    monotone = True
    final_ok = True
    worst_final = 0.0
    for t_idx, mu in enumerate(targets):
        prev_density = None
        prev_min = np.inf
        for k, ts in enumerate(systems):
            states, densities = compress.liftable_states(
                ts, samples=498, seed=9100 + 17 * t_idx + k)
            if prev_density is not None:
                moved = compress.restrict_state(systems[k - 1], ts, prev_density)
                states.append(compress.pullback_state(ts, moved))
                densities.append(moved)
            target_density = _sqrt_candidate(ts, mu)
            states.append(compress.pullback_state(ts, target_density))
            densities.append(target_density)
            dists = [mkdist.mk_distance(g, lip, mu, s) for s in states]
            best = int(np.argmin(dists))
            if dists[best] > prev_min + 1e-9:
                monotone = False
            prev_min = min(prev_min, dists[best])
            prev_density = densities[best]
        worst_final = max(worst_final, prev_min)
        final_ok = final_ok and prev_min < 1e-6
    ok = monotone and final_ok
    _report(9, "Liftable-state density",
            ok, f"monotone {monotone}, max final distance {worst_final:.2e}")


def _sqrt_candidate(ts, mu):
    weights = np.clip(np.asarray(mu.coeffs).real, 0.0, None)
    root = np.sqrt(weights / weights.sum())
    v = ts.frame.conj().T @ root
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_criterion_10_lp_oracle_equivalence(z8_bundle):
    g8, _, _, lip8 = z8_bundle
    g3 = hopf.function_algebra(groups.s3_table(), metric=oracles.s3_transposition_metric())
    lip3 = lipnorm.lip_from_metric(g3)
    rng = np.random.default_rng(101)
    worst = 0.0
    for g, lip, count in ((g8, lip8, 25), (g3, lip3, 25)):
        for _ in range(count):
            mu = random_state(g, rng)
            nu = random_state(g, rng)
            lp_val = mkdist.mk_distance(g, lip, mu, nu)
            oracle = oracles.transport_distance(mu.coeffs.real, nu.coeffs.real, g.metric)
            worst = max(worst, abs(lp_val - oracle))
    ok = worst < 1e-8
    _report(10, "LP oracle equivalence", ok, f"max gap {worst:.2e} over 50 pairs")
