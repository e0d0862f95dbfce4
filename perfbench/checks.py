"""Output checks for the benchmark's workloads, against independent oracles.

Each check takes the bytes one CLI invocation wrote and returns a list of
problems (empty when the output is correct).  Oracles come from scipy and
mpmath, never from the package, and never from stored Monte Carlo bytes, so a
correct change of random draws still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

REGIONS_REFERENCE = Path(__file__).with_name("regions_reference.json")

# The gate's finite-n rule is |target - analytic| <= max(3 se, 0.05) at fixed
# seeds.  The benchmark draws fresh seeds on every run, so a 3-sigma rule
# would fail a correct program on about 2% of t1 curves; 5 sigma keeps that
# below 1e-5 per curve while the 0.05 floor still rejects a biased target.
TARGET_SIGMAS = 5.0
TARGET_FLOOR = 0.05

# Published neighborhood radii and the gate's tolerances (criterion 7).
RADII = {("t1:1", "minimax_radius"): (0.95, 0.05),
         ("t3", "uo_radius"): (1.77, 0.1),
         ("t3", "minimax_radius"): (2.21, 0.1)}


def arg(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def grid(spec: str) -> list[float]:
    start, stop, step = (float(p) for p in spec.split(":"))
    if step == 0 or stop <= start:
        return [start]
    return [start + i * step for i in range(int(math.floor((stop - start) / step + 1e-9)) + 1)]


def t1_bias(mu: float) -> float:
    import mpmath
    return float(1 + mpmath.erf(mpmath.mpf(mu) / mpmath.sqrt(2)))


def t3_alpha0(mu: float, n: float) -> float:
    """Cone half-angle of the t3 geometry at distance mu for sample size n:
    solve mu = sqrt(2n)(1 - phi)/sqrt(phi(3 - 2 phi)) for phi, then
    alpha0 = arctan(1/sqrt(3(3 - 2 phi)))."""
    from scipy.optimize import brentq
    if mu == 0.0:
        phi = 1.0
    else:
        phi = brentq(lambda p: math.sqrt(2 * n) * (1 - p) / math.sqrt(p * (3 - 2 * p)) - mu,
                     1e-12, 1.0, xtol=1e-15)
    return math.atan(1.0 / math.sqrt(3.0 * (3.0 - 2.0 * phi)))


@lru_cache(maxsize=None)
def t3_bias(mu: float, n: float) -> float:
    """2 E[(z - mu0).(P z - mu0)] for z ~ N((0, mu), I) and P the projection
    onto the rays at pi/2, pi + alpha0 and 2pi - alpha0.  Integrated in polar
    coordinates over the angular sector of each ray, bounded by the bisectors
    to its neighbours, where the projection is smooth."""
    from scipy.integrate import dblquad
    a0 = t3_alpha0(mu, n)
    rays = sorted((0.5 * math.pi, math.pi + a0, 2 * math.pi - a0))
    total = 0.0
    for k, a in enumerate(rays):
        prev, nxt = rays[k - 1] - (2 * math.pi if k == 0 else 0), \
            rays[(k + 1) % 3] + (2 * math.pi if k == 2 else 0)
        lo, hi = 0.5 * (prev + a), 0.5 * (a + nxt)
        dx, dy = math.cos(a), math.sin(a)

        def f(rho, th):
            x, y = rho * math.cos(th), rho * math.sin(th)
            t = max(0.0, x * dx + y * dy)
            ex, ey = x, y - mu
            dens = math.exp(-0.5 * (ex * ex + ey * ey)) / (2 * math.pi)
            return 2 * (ex * t * dx + ey * (t * dy - mu)) * dens * rho

        val, _ = dblquad(f, lo, hi, 0.0, mu + 14.0, epsabs=1e-12, epsrel=1e-12)
        total += val
    return total


def table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_target(args: list[str], out: bytes) -> list[str]:
    """Curves from `aicg target`: analytic column against the oracle, target
    column within max(5 se, 0.05) of it, every stochastic column finite."""
    model, n = arg(args, "--model"), float(arg(args, "--n"))
    methods = arg(args, "--method").split(",")
    header, rows = table(out.decode("utf-8"))
    want = ["mu0y", "target", "target_se", "aicg_bias", "aic_bias"]
    want += [c for m in methods for c in (m, f"{m}_se")]
    if header != want:
        return [f"header {header} != {want}"]
    mus = grid(arg(args, "--grid"))
    if len(rows) != len(mus):
        return [f"{len(rows)} rows for {len(mus)} grid points"]
    problems = []
    for mu, row in zip(mus, rows):
        vals = dict(zip(header, map(float, row)))
        oracle = t1_bias(mu) if model.startswith("t1") else t3_bias(mu, n)
        if vals["mu0y"] != mu:
            problems.append(f"mu0y {vals['mu0y']} != {mu}")
        if abs(vals["aicg_bias"] - oracle) > 1e-7:
            problems.append(f"mu0y={mu}: aicg_bias {vals['aicg_bias']} vs oracle {oracle}")
        if vals["aic_bias"] != 2.0:
            problems.append(f"mu0y={mu}: aic_bias {vals['aic_bias']} != 2")
        for col in ["target", *methods]:
            est, se = vals[col], vals[f"{col}_se"]
            # far from the origin every draw falls outside a neighborhood
            # rule's ball, so the column is exactly the classical value
            constant = col in ("uo", "minimax") and est == vals["aic_bias"] and se == 0
            if not (math.isfinite(est) and math.isfinite(se) and (se > 0 or constant)):
                problems.append(f"mu0y={mu}: {col}={est} se={se}")
        gap = abs(vals["target"] - oracle)
        tol = max(TARGET_SIGMAS * vals["target_se"], TARGET_FLOOR)
        if not gap <= tol:
            problems.append(f"mu0y={mu}: |target - oracle| = {gap:.4f} > {tol:.4f}")
    return problems


def lattice(resolution: int) -> list[tuple[int, int, int]]:
    """Barycentric points (i, j, k), row-major in i then j, without vertices."""
    return [(i, j, resolution - i - j) for i in range(resolution + 1)
            for j in range(resolution + 1 - i) if max(i, j, resolution - i - j) < resolution]


def reference_winners(pair: str, n: int, resolution: int) -> dict[tuple[int, int, int], str]:
    """The stored winner of every lattice point; empty when the stored grid
    is for another n or resolution."""
    ref = json.loads(REGIONS_REFERENCE.read_text(encoding="utf-8"))[pair]
    if (ref["n"], ref["resolution"]) != (n, resolution):
        return {}
    labels = {code: label for label, code in ref["codes"].items()}
    return dict(zip(lattice(resolution), (labels[c] for c in ref["winners"])))


# The gate's probe points (criterion 11), rescaled to the lattice: (p, label).
PROBES = {"t1:1,polytomy": [((0.6, 0.2, 0.2), "t1:1"), ((0.34, 0.33, 0.33), "polytomy")],
          "t3,unconstrained": [((0.5, 0.25, 0.25), "t3"), ((0.45, 0.45, 0.1), "unconstrained")]}


def check_regions(args: list[str], out: bytes) -> list[str]:
    """Decision regions: winners identical to the stored reference grid, the
    symmetries of the pair (swap of the two minor taxa for t1:1, every
    permutation for t3), and the probe points."""
    pair, res = arg(args, "--pair"), int(arg(args, "--resolution"))
    header, rows = table(out.decode("utf-8"))
    if header != ["p1", "p2", "p3", "winner"]:
        return [f"header {header}"]
    points = lattice(res)
    if len(rows) != len(points):
        return [f"{len(rows)} rows for {len(points)} lattice points"]
    got = {}
    for (i, j, k), row in zip(points, rows):
        if [float(v) for v in row[:3]] != [i / res, j / res, k / res]:
            return [f"lattice point {row[:3]} != {(i, j, k)}/{res}"]
        got[(i, j, k)] = row[3]
    problems = []
    ref = reference_winners(pair, int(arg(args, "--n")), res)
    changed = [p for p in points if ref.get(p) != got[p]]
    if changed:
        problems.append(f"{len(changed)} winners differ from the reference, first at {changed[0]}")
    perms = [(0, 2, 1)] if pair.startswith("t1") else \
        [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    broken = [p for p in points for q in perms if got[p] != got[tuple(p[i] for i in q)]]
    if broken:
        problems.append(f"symmetry broken at {broken[0]}")
    for p, label in PROBES.get(pair, []):
        point = tuple(round(x * res) for x in p)
        if got.get(point) != label:
            problems.append(f"probe {point}: {got.get(point)} != {label}")
    return problems


def check_radii(args: list[str], out: bytes) -> list[str]:
    """Calibrated radii within the gate's tolerance of the published values."""
    doc = json.loads(out.decode("utf-8"))
    problems = []
    for (model, key), (value, tol) in RADII.items():
        if doc.get("model") != model:
            continue
        got = doc.get(key)
        if not (isinstance(got, float) and abs(got - value) <= tol):
            problems.append(f"{model} {key} = {got}, want {value} +- {tol}")
    if not any(doc.get("model") == m for m, _ in RADII):
        problems.append(f"unexpected model {doc.get('model')}")
    return problems


CHECKS = {"target": check_target, "regions": check_regions, "radii": check_radii}


def check(args: list[str], out: bytes) -> list[str]:
    """Problems with one invocation's output; args are its CLI arguments."""
    try:
        return CHECKS[args[0]](args, out)
    except (ValueError, KeyError, IndexError, csv.Error) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
