""".model card rendering."""

import pytest

from repro.compact.cards import render_model_card
from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import PARAMETER_SPECS, default_parameters
from repro.tcad.device import Polarity


@pytest.fixture(scope="module")
def model():
    params = default_parameters().updated({"VTH0": 0.42, "U0": 0.037,
                                           "VSAT": 1.1e5})
    return BsimSoi4Lite(params=params, polarity=Polarity.NMOS,
                        name="nch_test")


def _card_values(card: str) -> dict:
    return {key.upper(): float(value)
            for line in card.splitlines()[1:]
            for key, value in [line.lstrip("+ ").split("=")]}


def test_render_contains_header(model):
    card = render_model_card(model)
    assert card.startswith(".model nch_test nmos")
    assert "level=70" in card
    assert "vth0=0.42" in card


def test_render_lists_every_parameter_and_the_geometry(model):
    values = _card_values(render_model_card(model))
    for name in PARAMETER_SPECS:
        assert values[name] == pytest.approx(model.p(name), rel=1e-5)
    assert values["W"] == pytest.approx(model.width)
    assert values["L"] == pytest.approx(model.length)
    pmodel = BsimSoi4Lite(params=default_parameters(),
                          polarity=Polarity.PMOS, name="pch")
    assert render_model_card(pmodel).startswith(".model pch pmos")
