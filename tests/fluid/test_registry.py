"""Fluid-model registry: factory round-trips and parameter validation."""

import pytest

from repro.fluid import (
    FLUID_MODELS,
    FluidModel,
    fluid_model_params,
    make_fluid_model,
)


@pytest.mark.parametrize("name", sorted(FLUID_MODELS))
def test_factory_roundtrip(name):
    model = make_fluid_model(name, capacity=250.0, n_flows=5, rtt=0.08)
    assert isinstance(model, FLUID_MODELS[name])
    assert isinstance(model, FluidModel)
    assert model.capacity == 250.0
    assert model.n_flows == 5
    assert model.rtt == 0.08
    # the registered surface is actually usable
    w_star = model.equilibrium()[0]
    assert w_star == pytest.approx(0.08 * 250.0 / 5)
    state = model.equilibrium_state()
    assert state[0] == pytest.approx(w_star)


def test_factory_rejects_unknown_model():
    with pytest.raises(ValueError, match="pert_red"):
        make_fluid_model("no_such_model")


def test_factory_rejects_unknown_param():
    with pytest.raises(ValueError, match="capacitee"):
        make_fluid_model("pert_red", capacitee=100.0)


def test_fluid_model_params_lists_constructor_fields():
    params = fluid_model_params("pert_red")
    assert {"capacity", "n_flows", "rtt", "t_min", "t_max"} <= set(params)


@pytest.mark.parametrize("params, match", [
    (dict(delta=0.0), "delta"),
    (dict(delta=-1e-4), "delta"),
    (dict(delta=float("inf")), "delta"),
    (dict(p_max=0.0), "p_max"),
    (dict(p_max=-0.1), "p_max"),
    (dict(p_max=1.5), "p_max"),
])
def test_pert_red_rejects_bad_values(params, match):
    with pytest.raises(ValueError, match=match):
        make_fluid_model("pert_red", **params)
