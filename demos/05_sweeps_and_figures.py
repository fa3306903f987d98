"""Batch sweeps and ready-made figure datasets.

Shows the sweep machinery end to end: sweep the link phase with the
effective detuning re-locked at every point, write the bundle (per-point
CSV + index + SHA-256 manifest), and regenerate one of the standard
figure datasets.  Output lands in ./demo_sweep_output/.

Run:  python3 demos/05_sweeps_and_figures.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import omit_lab as ol


def main() -> None:
    out_root = Path("demo_sweep_output")

    cfg = ol.standard_setup(2, eta_frac=0.05, lock_delta_frac=None)
    omega_m = cfg.omega_ref
    spec = ol.SweepSpec(
        parameter="theta_pi_units",
        values=tuple(np.linspace(0.0, 2.0, 9)),
        lock_delta=omega_m,
    )
    bundle = ol.run_sweep(cfg, spec, span=(0.9, 1.1), points=401,
                          include_second_order=False)
    written = ol.write_bundle(bundle, out_root / "theta_sweep")
    print(f"theta sweep: {len(written)} files under {out_root}/theta_sweep")

    index = json.loads((out_root / "theta_sweep" / "bundle.json")
                       .read_text(encoding="utf-8"))
    print("\ntransmission at the window centres vs phase:")
    for value, spectrum in zip(spec.values, bundle.spectra):
        left = spectrum.transmission[
            np.argmin(np.abs(spectrum.omega - 0.95 * omega_m))]
        right = spectrum.transmission[
            np.argmin(np.abs(spectrum.omega - 1.05 * omega_m))]
        print(f"  theta = {value:4.2f} pi   |t(0.95)|^2 = {left:.3f}   "
              f"|t(1.05)|^2 = {right:.3f}")
    print(f"\nmanifest covers {len(index['points'])} points; "
          "re-running reproduces identical bytes.")

    print("\navailable figure presets:")
    for name, description in sorted(ol.figure_presets().items()):
        print(f"  {name}: {description}")
    files = ol.run_figure_preset("fig4", out_root / "fig4_data")
    print(f"\nfig4 dataset: {len(files)} files under {out_root}/fig4_data")


if __name__ == "__main__":
    main()
