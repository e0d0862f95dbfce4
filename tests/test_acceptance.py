"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not just reported.
"""

import math
import time

import numpy as np

from aicg.cli import main
from aicg.estimators import bias_on_cone, calibrate_radii, singularity_bias
from aicg.geometry import (
    alpha_from_phi0,
    mu0y,
    phi_from_mu0y,
    theta_on_line,
)
from aicg.models import (
    polytomy_model,
    t1_model,
    t3_model,
    unconstrained_model,
    validate_halflines,
)
from aicg.montecarlo import mc_target_trinomial, _chunk_rng
from aicg.quadrature import bias_t3_value
from aicg.selection import region_grid, simplex_lattice
from aicg.estimators import EstimatorRule
from aicg.special import norm_cdf

from oracles import (CENTROID, TransformedPoint, cone_of, consistent_estimate, erf_decimal,
                     halflines_origin_bias, mc_bias_gaussian, standard_normals,
                     trinomial_target_exact, winning_component)

TWO_PI = 2.0 * math.pi
T3_SINGULAR = 2.0 + 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
GRID_11 = [0.5 * i for i in range(11)]


def report(num: int, passed: bool, detail: str, elapsed: float | None = None):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {num:2d}: {status}{timing} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_01_t1_closed_form():
    t1 = t1_model(1)
    bias_on_cone(t1, 1.0)  # warm any lazy setup before timing
    t0 = time.perf_counter()
    at_zero = bias_on_cone(t1, 0.0)
    at_five = bias_on_cone(t1, 5.0)
    elapsed = time.perf_counter() - t0
    oracle = 1.0 + erf_decimal(5.0 / math.sqrt(2.0))
    ok = at_zero == 1.0 and abs(at_five - oracle) <= 1e-9 and elapsed < 1e-3
    report(1, ok, f"bias(0)={at_zero}, |bias(5)-oracle|={abs(at_five - oracle):.2e}",
           elapsed)


def test_criterion_02_t3_singular_constant():
    t3 = t3_model()
    t0 = time.perf_counter()
    v = bias_on_cone(t3, 0.0, math.pi / 6.0)
    elapsed = time.perf_counter() - t0
    hl = halflines_origin_bias(validate_halflines([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI]))
    ok = (abs(v - T3_SINGULAR) <= 1e-6 and abs(v - hl) <= 1e-9 and elapsed < 1.0)
    report(2, ok, f"|t3-const|={abs(v - T3_SINGULAR):.2e}, |t3-halflines|={abs(v - hl):.2e}",
           elapsed)


def test_criterion_03_halflines_corollaries():
    t0 = time.perf_counter()
    single = singularity_bias(validate_halflines([TWO_PI]))
    two = singularity_bias(validate_halflines([math.pi, TWO_PI]))
    big_l = 10_000
    big = singularity_bias(validate_halflines([(i + 1) * TWO_PI / big_l for i in range(big_l)]))
    rng = np.random.default_rng(303)
    worst_gap = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        rest = rng.dirichlet(np.ones(k)) * math.pi
        gaps = [math.pi, *rest]
        low = 2.0 + sum(math.sin(g) for g in gaps) / math.pi
        high = 3.0 + (sum(math.sin(g) for g in gaps[1:]) - math.pi) / math.pi
        worst_gap = max(worst_gap, abs(low - high))
    elapsed = time.perf_counter() - t0
    ok = (abs(single - 1.0) <= 1e-12 and abs(two - 2.0) <= 1e-12
          and abs(big - 4.0) <= 1e-6 and worst_gap <= 1e-12 and elapsed < 1.0)
    report(3, ok, f"l=1:{single}, l=2:{two}, l=1e4 gap:{abs(big - 4):.2e}, "
           f"continuity gap:{worst_gap:.1e}", elapsed)


def test_criterion_04_monte_carlo_vs_analytic():
    t0 = time.perf_counter()
    worst_z = 0.0
    n_ref = 1e6
    for variant in ("t1", "t3"):
        for i, mu in enumerate(GRID_11):
            alpha0 = alpha_from_phi0(phi_from_mu0y(mu, n_ref))
            if variant == "t1":
                model, cone = t1_model(1), cone_of(t1_model(1))
                analytic = bias_on_cone(t1_model(1), mu)
            else:
                model = t3_model()
                cone = cone_of(model, alpha0)
                analytic = bias_t3_value(mu, alpha0)
            est = mc_bias_gaussian(cone, TransformedPoint(0.0, mu),
                                   8_800 + i, 10**6)
            worst_z = max(worst_z, abs(est.value - analytic) / est.std_error)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and elapsed < 120.0
    report(4, ok, f"worst |mc-analytic|/se = {worst_z:.2f} over 22 grid points", elapsed)


def test_criterion_05_pointwise_nonnegativity():
    t0 = time.perf_counter()
    cases = [
        (cone_of(t1_model(1)), TransformedPoint(0.0, 1.0)),
        (cone_of(t3_model(), alpha_from_phi0(1.0)), TransformedPoint(0.0, 0.0)),
        (cone_of(polytomy_model()), TransformedPoint(0.0, 0.0)),
        (cone_of(unconstrained_model()), TransformedPoint(0.0, 0.0)),
        (cone_of(validate_halflines([2.8, 4.5, TWO_PI])), TransformedPoint(0.0, 0.0)),
    ]
    worst = 0.0
    for i, (cone, mu0) in enumerate(cases):
        est = mc_bias_gaussian(cone, mu0, 55_000 + i, 10**6)
        worst = min(worst, est.min_draw)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 60.0
    report(5, ok, f"min draw over 5 models x 1e6 draws = {worst:.3e}", elapsed)


def test_criterion_06_finite_n_target():
    # (a) the exact finite-n target lies within 0.05 of the analytic value;
    # (b) its Monte Carlo estimate lies within 4 se of the exact target
    t0 = time.perf_counter()
    n = 1000
    worst_gap, worst_z = -math.inf, 0.0
    cases = []
    for variant in ("t1", "t3"):
        model = t1_model(1) if variant == "t1" else t3_model()
        for i, mu in enumerate(GRID_11):
            phi0 = phi_from_mu0y(mu, n)
            analytic = bias_on_cone(t1_model(1), mu) if variant == "t1" \
                else bias_t3_value(mu, alpha_from_phi0(phi0))
            cases.append((model, theta_on_line(phi0, 1), analytic, 31_000 + i))
    cases.append((unconstrained_model(), CENTROID, 4.0, 31_500))
    for model, theta0, analytic, seed in cases:
        exact = trinomial_target_exact(model.model_id, theta0, n)
        (value, se), = mc_target_trinomial(model, theta0, n, seed, 10**5)
        worst_gap = max(worst_gap, abs(exact - analytic))
        worst_z = max(worst_z, abs(value - exact) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.05 and worst_z <= 4.0 and elapsed < 300.0
    report(6, ok, f"worst |exact - analytic| = {worst_gap:.4f} (<= 0.05), "
           f"worst |MC - exact| / se = {worst_z:.2f} (<= 4)", elapsed)


def test_criterion_07_published_radii():
    t0 = time.perf_counter()
    grid = np.arange(0.0, 5.0001, 0.05)
    r_mm_t1 = calibrate_radii(t1_model(1), grid, 1e6)["minimax_radius"]
    t3 = calibrate_radii(t3_model(), grid, 1e6)
    r_uo_t3, r_mm_t3 = t3["uo_radius"], t3["minimax_radius"]
    elapsed = time.perf_counter() - t0
    ok = (abs(r_mm_t1 - 0.95) <= 0.05 and abs(r_uo_t3 - 1.77) <= 0.1
          and abs(r_mm_t3 - 2.21) <= 0.1 and elapsed < 300.0)
    report(7, ok, f"t1 minimax={r_mm_t1:.3f}, t3 uo={r_uo_t3:.3f}, "
           f"t3 minimax={r_mm_t3:.3f}", elapsed)


def test_criterion_08_t1_dominance_chain():
    mus = np.arange(0.0, 5.0001, 0.01)
    lower = 2.0 * norm_cdf(mus)
    mid = 2.0 - norm_cdf(-mus)
    ok = bool(np.all(lower < mid) and np.all(mid < 2.0))
    report(8, ok, "2 Phi(mu) < 2 - Phi(-mu) < 2 strictly on grid step 0.01")


def test_criterion_09_consistent_estimation():
    t0 = time.perf_counter()
    n = 10**6
    reps = 10**4
    rng = _chunk_rng(777, 0)
    z0 = standard_normals(rng, (reps, 2))

    def at_origin(z):
        w = consistent_estimate(t1_model(1), TransformedPoint(*z), n)[0]
        return math.hypot(w.x, w.y) == 0.0

    at_boundary = sum(at_origin(z) for z in z0) / reps
    mu_far = mu0y(0.9, n)
    z1 = standard_normals(rng, (reps, 2)) + np.array([0.0, mu_far])
    away = sum(at_origin(z) for z in z1) / reps
    elapsed = time.perf_counter() - t0
    ok = at_boundary >= 0.999 and away <= 0.001 and elapsed < 120.0
    report(9, ok, f"P(shrink | boundary)={at_boundary:.4f}, "
           f"P(shrink | phi0=0.9)={away:.4f}", elapsed)


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    cases = [
        ("target-plugin", ["target", "--model", "t1", "--n", "500", "--grid", "0:1:0.5",
                           "--samples", "200000", "--seed", "12", "--method", "plugin"]),
        ("target", ["target", "--model", "t3", "--n", "500", "--grid", "0:1:0.5",
                    "--samples", "50000", "--seed", "12"]),
        ("select-boot", ["select", "--counts", "40,30,30", "--models", "t1:1,polytomy",
                         "--method", "bootstrap", "--seed", "12"]),
        ("regions", ["regions", "--pair", "t1:1,polytomy", "--n", "60",
                     "--resolution", "60", "--seed", "12"]),
    ]
    identical = True
    for name, args in cases:
        paths = [tmp_path / f"{name}-{k}.out" for k in range(2)]
        for path in paths:
            assert main([*args, "--out", str(path)]) == 0
        identical &= paths[0].read_bytes() == paths[1].read_bytes()
    # worker count must not influence bytes either
    w_paths = [tmp_path / f"workers-{k}.out" for k in (1, 3)]
    for workers, path in zip((1, 3), w_paths):
        args = ["target", "--model", "t1", "--n", "500", "--grid", "0:1:0.5",
                "--samples", "120000", "--seed", "9", "--workers", str(workers)]
        assert main([*args, "--out", str(path)]) == 0
    identical &= w_paths[0].read_bytes() == w_paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    report(10, identical, "stochastic subcommands byte-identical on rerun "
           "and across worker counts", elapsed)


def test_criterion_11_region_grid_properties():
    t0 = time.perf_counter()
    rule = EstimatorRule("plugin")
    points = simplex_lattice(200)
    winners_a = region_grid([t1_model(1), polytomy_model()], 200, 200, rule)
    lookup_a = dict(zip(points, winners_a))
    swap_ok = all(lookup_a[(i, j, k)] == lookup_a[(i, k, j)] for (i, j, k) in points)
    probes_a = lookup_a[(67, 67, 66)] == "polytomy" and lookup_a[(120, 40, 40)] == "t1:1"
    component = winning_component(lookup_a, "polytomy", (67, 67, 66))
    connected = len(component) == sum(1 for w in winners_a if w == "polytomy")

    lookup_b = dict(zip(points, region_grid([t3_model(), unconstrained_model()], 200, 200, rule)))
    perms = [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    perm_ok = all(
        lookup_b[p] == lookup_b[(p[perm[0]], p[perm[1]], p[perm[2]])]
        for p in points for perm in perms)
    probes_b = (lookup_b[(100, 50, 50)] == "t3"
                and lookup_b[(90, 90, 20)] == "unconstrained")
    elapsed = time.perf_counter() - t0
    ok = (swap_ok and probes_a and connected and perm_ok and probes_b
          and elapsed < 120.0)
    report(11, ok, f"swap symmetric={swap_ok}, permutation symmetric={perm_ok}, "
           f"probes={probes_a and probes_b}, polytomy region connected={connected}",
           elapsed)
