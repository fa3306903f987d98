"""Window counting in longer chains via the normal-mode picture.

A uniform chain of N mechanical modes with nearest-neighbour phonon
hopping diagonalises into N normal modes on a cosine frequency ladder.
With no phase on the links, every even-indexed normal mode decouples from
the light (dark); putting a phase on the first link re-couples them all.
The probe spectrum counts the bright modes directly: each one carves its
own transparency window.

Run:  python3 demos/03_nmode_chains.py
"""

from __future__ import annotations

import math

import numpy as np

import omit_lab as ol


def main() -> None:
    print("== normal-mode ladder and couplings, N = 4 ==\n")
    for theta_pi, label in ((0.0, "aligned links (theta_1 = 0)"),
                            (0.5, "first link at pi/2")):
        cfg = ol.standard_setup(4, eta_frac=0.05, theta=theta_pi * math.pi)
        steady = ol.solve_steady_state(cfg)
        basis = ol.build_normal_modes(cfg, steady)
        g_ref = float(ol.linearized_couplings(cfg, steady)[0])
        print(f"{label}:")
        for k in range(1, basis.n + 1):
            freq = basis.frequencies[k - 1] / cfg.omega_ref
            weight = abs(basis.couplings[k - 1]) / g_ref
            tag = "dark" if weight < 1e-9 else "bright"
            print(f"  k={k}  Omega_k = {freq:.4f} omega_m   "
                  f"|c_k|/G = {weight:.4f}  ({tag})")
        print()

    print("== window count vs chain length ==\n")
    print("N   theta_1=0   theta_1=pi/2")
    for n in (2, 3, 4, 5):
        counts = []
        for theta_pi in (0.0, 0.5):
            cfg = ol.standard_setup(n, eta_frac=0.05,
                                    theta=theta_pi * math.pi)
            spectrum = ol.compute_spectrum(cfg, include_second_order=False)
            counts.append(ol.count_windows(spectrum))
        print(f"{n}   {counts[0]:^9d}   {counts[1]:^12d}")

    print("\n== cross-check: site basis vs normal-mode basis ==\n")
    cfg = ol.standard_setup(3, eta_frac=0.05, theta=0.9)
    steady = ol.solve_steady_state(cfg)
    omega = np.linspace(0.85, 1.15, 31) * cfg.omega_ref
    site = ol.compute_spectrum(cfg, omega, include_second_order=False,
                               steady=steady).amplitude
    star = ol.transmission_via_normal_modes(cfg, steady, omega)
    print(f"max |t_site - t_star| = {np.max(np.abs(site - star)):.3e} "
          "(same physics, two bases)")


if __name__ == "__main__":
    main()
