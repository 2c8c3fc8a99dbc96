"""Extending the library: define, verify and evaluate a *new* cell.

Builds an AOI22 (y = !(a b + c d)) that is not part of the paper's 14
cells, proves its logic against a reference truth table, nets it with the
2-channel MIV-transistor models, simulates it, and compares its PPA with
the 2-D baseline — exactly the workflow a user of this library would
follow for their own cells.

Run:  python examples/custom_cell.py   (about one minute)
"""

import itertools

from repro.cells.spec import CellSpec, GateStage, inp, parallel, series
from repro.cells.variants import DeviceVariant, extracted_model_set
from repro.layout.cell_layout import CellAreaModel
from repro.ppa.delay import measure_cell_delay
from repro.ppa.power import measure_cell_power
from repro.ppa.runner import simulate_cell


def build_aoi22() -> CellSpec:
    """AOI22: y = !(a b + c d) — one complementary stage."""
    return CellSpec(
        name="AOI22X1",
        inputs=("a", "b", "c", "d"),
        output="y",
        stages=(GateStage("y", parallel(series(inp("a"), inp("b")),
                                        series(inp("c"), inp("d")))),),
        description="2-2 AND-OR-invert",
    )


def verify_logic(cell: CellSpec) -> None:
    for bits in itertools.product((False, True), repeat=4):
        a, b, c, d = bits
        expected = not ((a and b) or (c and d))
        got = cell.evaluate(dict(zip(cell.inputs, bits)))
        assert got == expected, bits
    print(f"{cell.name}: truth table verified "
          f"({cell.transistor_count} transistors).")


def evaluate(cell: CellSpec, variant: DeviceVariant) -> dict:
    netlist, results = simulate_cell(cell, variant,
                                     models=extracted_model_set(variant))
    area = CellAreaModel().layout(cell, variant)
    return {
        "delay": measure_cell_delay(netlist, results),
        "power": measure_cell_power(netlist, results),
        "area": area.cell_area,
    }


def main() -> None:
    cell = build_aoi22()
    verify_logic(cell)

    print("\nSimulating AOI22X1 in the 2-D and 2-channel implementations...")
    baseline = evaluate(cell, DeviceVariant.TWO_D)
    proposed = evaluate(cell, DeviceVariant.MIV_2CH)

    print(f"\n{'metric':<8} {'2D':>12} {'2-ch':>12} {'change':>9}")
    for metric, scale, unit in (("delay", 1e12, "ps"),
                                ("power", 1e6, "uW"),
                                ("area", 1e12, "um2")):
        b, p = baseline[metric] * scale, proposed[metric] * scale
        print(f"{metric:<8} {b:>10.4f}{unit:<3} {p:>10.4f}{unit:<3} "
              f"{100 * (p / b - 1):>+8.2f}%")


if __name__ == "__main__":
    main()
