"""Design-space exploration: ring oscillators and placement.

Two extension studies on top of the paper's nominal evaluation:

1. Ring-oscillator frequencies per implementation (an independent check
   of the Figure 5(a) delay ordering, with self-generated slews).
2. How much substrate does *separate per-layer placement* (the paper's
   future work) recover for each variant?

Process corners are not run here: each corner is a full 14-cell flow,
and the paper gates' margins at every corner are the generated table of
EXPERIMENTS.md ("Paper gates across process corners",
``python -m repro.reporting.experiments``).

Run:  python examples/design_space_exploration.py   (about one minute)
"""

from repro.analysis.ring_oscillator import measure_ring_frequency
from repro.cells.variants import DeviceVariant
from repro.layout.placement import Placer, demo_netlist


def rings() -> None:
    print("=== 1. five-stage ring oscillators ===")
    base = None
    for variant in DeviceVariant:
        ring = measure_ring_frequency(variant)
        if base is None:
            base = ring.frequency
        print(f"{variant.value:<6} f = {ring.frequency / 1e9:6.2f} GHz   "
              f"stage delay {ring.stage_delay * 1e12:5.2f} ps   "
              f"({ring.frequency / base - 1.0:+.1%} vs 2D)")
    print("Ring slews are self-generated (slow); the n-only V_th shift "
          "lowers the\ninverter switching threshold and penalises rising "
          "edges, so the ordering\ndiffers from the driven-edge cell "
          "delays of Figure 5(a).\n")


def placement() -> None:
    print("=== 2. joint vs per-layer placement (future work) ===")
    placer = Placer(demo_netlist(scale=4), row_width=3e-6)
    print(f"{'variant':<7} {'joint':>8} {'separate':>10}")
    for variant in (DeviceVariant.MIV_1CH, DeviceVariant.MIV_2CH,
                    DeviceVariant.MIV_4CH):
        savings = placer.substrate_savings(variant)
        print(f"{variant.value:<7} {100 * savings['joint']:>7.1f}% "
              f"{100 * savings['separate']:>9.1f}%")
    print("Separate placement recovers the 4-channel device's short top "
          "rows,\nthe mechanism behind the paper's 'up to 31%' estimate.")


def main() -> None:
    rings()
    placement()


if __name__ == "__main__":
    main()
