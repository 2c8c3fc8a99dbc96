"""The Figure-3 extraction flow, step by step, with a model card.

Characterises the 2-channel MIV-transistor NMOS in TCAD-lite, runs the
three extraction stages individually (showing the parameter hand-off),
scores the Table III regions, and prints the resulting HSPICE-style
.model card.  Each stage's ``residual_fn`` evaluates many parameter
rows in one compact-model call; ``fit_parameters`` hands it the
optimiser's single points and whole finite-difference Jacobians.

Run:  python examples/extraction_flow.py   (about 2 seconds on a 2-vCPU
      x86-64 box with a cold cache)
"""

from repro.compact.cards import render_model_card
from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.extraction.flow import ExtractionFlow, score_regions
from repro.extraction.optimizer import fit_parameters
from repro.extraction.stages import default_stage_sequence
from repro.extraction.targets import cached_targets
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity


def main() -> None:
    print("TCAD characterisation of the 2-channel MIV-transistor (n) ...")
    targets = cached_targets(ChannelCount.TWO, Polarity.NMOS)

    params = default_parameters()
    model = BsimSoi4Lite(params=params, polarity=Polarity.NMOS,
                        name="nch_miv2")
    print("\nRunning the Figure-3 stages:")
    for stage in default_stage_sequence():
        template = BsimSoi4Lite(params=params, polarity=Polarity.NMOS,
                                name=model.name)
        residual_fn = stage.residual_fn(template, targets)
        params, rms = fit_parameters(params, stage.parameter_names,
                                     residual_fn)
        fitted = {n: params[n] for n in stage.parameter_names}
        print(f"  {stage.name:<12} rms={rms:.4f}  " +
              "  ".join(f"{k}={v:.3g}" for k, v in list(fitted.items())[:4])
              + " ...")

    final = BsimSoi4Lite(params=params, polarity=Polarity.NMOS,
                         name="nch_miv2")
    print("\nTable III regional errors for this device:")
    for region, error in score_regions(final, targets).items():
        print(f"  {region:<5} {error:.1f}%   (paper bound: < 10%)")

    print("\nExtracted .model card:")
    print(render_model_card(final))

    print("For comparison, the packaged two-pass flow gives:")
    result = ExtractionFlow().run(targets)
    print("  ", {k: round(v, 2) for k, v in result.errors.items()})


if __name__ == "__main__":
    main()
