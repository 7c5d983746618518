"""Recompute the benchmark's stored references with numpy and scipy only.

Run from the repository root:

    python3 bench/reference.py

It rewrites bench/references.json.  Nothing here imports sievelab: every
value is derived from the paper's definitions (the Buchstab delay equation,
the U235 inequalities, the Type-II closed forms), so the benchmark checks
sievelab against numbers it did not produce.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")

OMEGA_34_STEP = 0.001  # grid of the stored omega values on [3, 4]


def kappa(theta: float) -> float:
    """Sieve starting point kappa(theta) for eps = 0 (three affine pieces)."""
    if not 0.5 <= theta < 4 / 7:
        raise ValueError("kappa is defined for 1/2 <= theta < 4/7")
    if theta <= 17 / 32:
        return (5 - 8 * theta) / 6
    if theta <= 7 / 13:
        return (5 - 8 * theta) / 12
    return (3 - 5 * theta) / 7


def omega_34(u: float) -> float:
    """Buchstab omega on [3, 4] from its integral form.

    (u omega(u))' = omega(u - 1) with omega = 1/u on [1, 2] gives
    u omega(u) = 1 + int_1^{u-1} omega(s) ds, and on [2, 3]
    omega(s) = (1 + log(s - 1))/s, so for u in [3, 4]
    u omega(u) = 1 + log 2 + int_2^{u-1} (1 + log(s - 1))/s ds.
    """
    from scipy import integrate

    if not 3.0 <= u <= 4.0:
        raise ValueError("omega_34 covers [3, 4]")
    tail, _ = integrate.quad(
        lambda s: (1.0 + math.log(s - 1.0)) / s, 2.0, u - 1.0, epsabs=1e-14, epsrel=1e-13
    )
    return (1.0 + math.log(2.0) + tail) / u


def s235(theta: float) -> float:
    """S235 = 2 * int over kappa < t3 < t2 < t1, t1 + t2 + t3 > 1/2,
    2 t1 + 2 t2 + t3 < 1 of dt / (t1 t2 t3 (1 - t1 - t2 - t3)).

    The catalog samples the box and divides by 3!; integrating the ordered
    region directly needs no sorting map.  The t1 floor max(t2, 1/2 - t2 - t3)
    switches at t2 = (1/2 - t3)/2, so the t2 range is split there to keep
    each piece smooth.
    """
    from scipy import integrate

    k = kappa(theta)

    def f(t1, t2, t3):
        return 1.0 / (t1 * t2 * t3 * (1.0 - t1 - t2 - t3))

    def t1_hi(t3, t2):
        return (1.0 - 2.0 * t2 - t3) / 2.0

    opts = dict(epsabs=1e-12, epsrel=1e-10)
    # tplquad(func(z, y, x), x range, y limits, z limits): x = t3, y = t2, z = t1.
    # Piece 1: t3 < t2 < (1/2 - t3)/2, floor 1/2 - t2 - t3.
    low, _ = integrate.tplquad(
        f, k, 0.2,
        lambda t3: t3, lambda t3: max(t3, (0.5 - t3) / 2.0),
        lambda t3, t2: 0.5 - t2 - t3, t1_hi, **opts,
    )
    # Piece 2: (1/2 - t3)/2 < t2 < (1 - t3)/4, floor t2.
    high, _ = integrate.tplquad(
        f, k, 0.2,
        lambda t3: max(t3, (0.5 - t3) / 2.0), lambda t3: max(t3, (1.0 - t3) / 4.0),
        lambda t3, t2: t2, t1_hi, **opts,
    )
    return 2.0 * (low + high)


def type_ii_closed_forms() -> dict[str, dict]:
    """Merged Type-II ranges at the points the benchmark queries.

    A0101 and A0104 are the sub-splits of acceptance criterion 6, E0101 the
    first bilinear leaf, and theta_mode the single-exponent list, whose
    g2 piece is empty above theta = 17/33.
    """
    out = {}
    t1, t2 = 0.36, 0.141
    out["A0101"] = {"point": [t1, t2], "merged": [[0.0, (5 - 8 * t1 - 8 * t2) / 6]]}
    t1, t2 = 0.39, 0.135
    out["A0104"] = {
        "point": [t1, t2],
        "merged": [
            [0.0, (4 - 7 * t1 - 8 * t2) / 6],
            [2 * t1 + 2 * t2 - 1, (5 - 8 * t1 - 8 * t2) / 6],
            [t2, (2 - 2 * t1 - 3 * t2) / 6],
        ],
    }
    t1, t2 = 0.28, 0.23
    out["E0101"] = {
        "point": [t1, t2],
        "merged": [[0.0, (5 - 8 * (t1 + t2)) / 6], [t2, (1 - t2) / 2]],
    }
    th = 0.52
    out["theta_mode"] = {"point": [th], "merged": [[2 * th - 1, (5 - 8 * th) / 6]]}
    return out


def compute() -> dict:
    n = int(round(1.0 / OMEGA_34_STEP))
    return {
        "S235_theta_0.52": s235(0.52),
        "omega_34": {
            "u0": 3.0,
            "step": OMEGA_34_STEP,
            "values": [omega_34(3.0 + i * OMEGA_34_STEP) for i in range(n + 1)],
        },
        "typeii": type_ii_closed_forms(),
    }


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    refs = compute()
    if any(name == "sievelab" or name.startswith("sievelab.") for name in sys.modules):
        print("error: sievelab was imported while computing references", file=sys.stderr)
        return 1
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"S235(theta=0.52) = {refs['S235_theta_0.52']!r}")
    om = refs["omega_34"]["values"]
    print(f"omega on [3, 4]: {len(om)} values, omega(3) = {om[0]!r}, omega(4) = {om[-1]!r}")
    for name, rec in refs["typeii"].items():
        print(f"type-II {name} at {rec['point']}: {rec['merged']}")
    print(f"wrote {os.path.relpath(REFERENCE_FILE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
