import numpy as np
import pytest

from npagraph import AerModelSpec, RngStream, grow_aer_unpruned

from crosscheck import (aer_lag1, edd_crosscheck, reference_models,
                        vdd_agreement)


def test_reference_models_all_valid():
    from npagraph import validate_model
    models = reference_models()
    assert set(models) == {"ba", "linear", "sublinear", "superlinear_m200",
                           "constant"}
    for spec in models.values():
        validate_model(spec)


def test_vdd_agreement_small_scale():
    report = vdd_agreement(reference_models()["ba"], n=20000, reps=2,
                           rng=RngStream(41))
    assert report["tv_distance"] < 0.05
    assert report["mean_degree_simulated"] == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("name", ["ba", "sublinear"])
def test_crosscheck_variants_against_simulation(name):
    # The mass-conserving variant tracks simulation on both the linear and
    # the nonlinear-weight model; the printed form's systematic offset is
    # what the report documents.
    report = edd_crosscheck(reference_models()[name], n=50000, reps=6,
                            window_u=12, rng=RngStream(5150))
    alt = report["variants"]["mean-weight"]
    printed = report["variants"]["printed"]
    assert alt["fraction_within_3se"] > 0.9
    assert printed["systematic_discrepancy"]
    assert alt["max_abs_deviation"] < printed["max_abs_deviation"] / 5.0


def test_aer_validation_reports_mean_degree_and_autocorrelation():
    spec, rng = AerModelSpec(n1=8000, a=2.75), RngStream(61)
    fulls = [grow_aer_unpruned(spec, rng.substream(rep)) for rep in range(3)]
    mean_degrees = [2.0 * full.edge_count / spec.n1 for full in fulls]
    assert np.mean(mean_degrees) == pytest.approx(2.75, rel=0.05)
    assert np.mean([aer_lag1(full)[0] for full in fulls]) > 0.3
