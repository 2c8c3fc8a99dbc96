"""Quickstart: from device physics to a PPA verdict in one script.

Runs the full pipeline on a pair of cells:

1. TCAD-lite characterisation of the traditional FDSOI devices and the
   2-channel MIV-transistor,
2. staged level-70 extraction (Figure 3),
3. standard-cell transient simulation with the paper's parasitics,
4. the 2-channel vs 2-D comparison (Figure 5 for two cells),
5. a traced re-run exporting a Chrome trace and a metrics summary.

Run:  python examples/quickstart.py        (about one minute)
"""

import tempfile
from pathlib import Path

from repro import DeviceVariant, Engine, default_engine, quick_ppa
from repro.reporting.figures import fig5_series, render_csv


def main() -> None:
    cells = ["INV1X1", "NAND2X1"]
    print(f"Characterising devices and simulating {cells} ...")
    comparison = quick_ppa(cells=cells)

    for metric, scale, unit in (("delay", 1e12, "ps"),
                                ("power", 1e6, "uW"),
                                ("area", 1e12, "um^2")):
        print(f"\n=== {metric} ({unit}) ===")
        print(render_csv(fig5_series(comparison, metric, scale),
                         float_format="{:.4f}"))

    two_ch = DeviceVariant.MIV_2CH
    print("\n2-channel MIV-transistor vs 2-D baseline (these cells):")
    for metric in ("delay", "power", "area", "pdp"):
        change = comparison.average_change_percent(two_ch, metric)
        print(f"  {metric:>6}: {change:+.2f}%")
    print("\nPaper headline (full library): delay -2%, power -1%, "
          "area -18%, PDP -3%.")

    # -- observability demo: re-run traced (warm cache, so it's fast) --
    out_dir = Path(tempfile.mkdtemp(prefix="repro_trace_"))
    print(f"\nRe-running with tracing on (exports under {out_dir}) ...")
    quick_ppa(cells=cells, engine=Engine(observe=out_dir,
                                         cache=default_engine().cache))
    print(f"  Chrome trace: {out_dir / 'trace.json'} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    print(f"  Event log:    {out_dir / 'events.jsonl'}")
    print((out_dir / "summary.txt").read_text())


if __name__ == "__main__":
    main()
