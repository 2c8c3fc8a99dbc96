"""Ablation — MIV side-gate coupling.

The delay trend of Figure 5(a) rests on the MIV acting as a side gate
(threshold reduction).  With the coupling disabled, the 1-/2-channel
devices lose their drive advantage and only penalties (edge scattering,
ring-gate stretch) remain — i.e. the MIV-transistor would be strictly
worse, confirming the coupling is the load-bearing mechanism.
"""

import repro.tcad.device as device_mod
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity, design_for_variant


def _drive_ratios():
    base = design_for_variant(ChannelCount.TRADITIONAL,
                              Polarity.NMOS).ids_magnitude(1.0, 1.0)
    return {variant: design_for_variant(variant, Polarity.NMOS)
            .ids_magnitude(1.0, 1.0) / base
            for variant in (ChannelCount.ONE, ChannelCount.TWO,
                            ChannelCount.FOUR)}


def test_coupling_ablation(benchmark):
    nominal = _drive_ratios()

    saved = device_mod.MIV_VTH_MAX
    device_mod.MIV_VTH_MAX = 0.0
    try:
        ablated = benchmark.pedantic(_drive_ratios, rounds=1, iterations=1)
    finally:
        device_mod.MIV_VTH_MAX = saved

    # With coupling: 1-ch / 2-ch beat the baseline.
    assert nominal[ChannelCount.ONE] > 1.02
    assert nominal[ChannelCount.TWO] > 1.02
    # Without coupling: no variant beats the baseline.
    for variant, ratio in ablated.items():
        assert ratio <= 1.001, f"{variant.name}: {ratio:.3f}"
    # And the 4-channel penalty deepens (penalties no longer offset).
    assert ablated[ChannelCount.FOUR] < nominal[ChannelCount.FOUR]

    print("\n[Ablation: MIV coupling] drive ratio vs traditional:")
    print(f"  {'variant':<8} {'nominal':>9} {'no coupling':>12}")
    for variant in nominal:
        print(f"  {variant.name.lower():<8} {nominal[variant]:>9.3f} "
              f"{ablated[variant]:>12.3f}")
