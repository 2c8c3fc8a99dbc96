"""BSIMSOI4-lite: a level-70-style compact model.

Implements the paper's named SPICE parameters (Table II constants and the
Section III-B extraction parameters) with BSIM-class analytic equations:
a unified smooth overdrive, MOBMOD=4-style mobility degradation,
characteristic-length short-channel corrections (DVT0/DVT1), DIBL (ETAB),
velocity saturation (VSAT), gate-bias-dependent Early voltage (PVAG) and
a CAPMOD=3-style capacitance model (CKAPPA/DELVT/CF/CGSO/CGDO/MOIN/
CGSL/CGDL).  The model is analytic and vectorised — this is what makes
standard-cell SPICE simulation tractable, exactly the role BSIMSOI4 plays
in the paper.
"""

from repro.compact.parameters import (
    EXTRACTION_STAGE_PARAMETERS,
    LEVEL70_CONSTANTS,
    ParameterSet,
    ParameterSpec,
    default_parameters,
)
from repro.compact.model import BsimSoi4Lite
from repro.compact.cards import render_model_card

__all__ = [
    "ParameterSpec",
    "ParameterSet",
    "default_parameters",
    "LEVEL70_CONSTANTS",
    "EXTRACTION_STAGE_PARAMETERS",
    "BsimSoi4Lite",
    "render_model_card",
]
