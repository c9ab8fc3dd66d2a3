"""Layer benchmarks of calibration (pytest-benchmark).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_calibrate_layers.py \
        --benchmark-json=calibrate_layers.json

This directory sits outside the test paths in pyproject.toml, so the
ordinary test run does not collect it. The targets are the exact planted
targets of the end-to-end benchmark's calibrate workload, built with the
public API only, so the same file times any version of the calibration
from 0.44.0 on, where one function, calibrate.fit, fits both kinds of
model; an older version needs its own copy of this file. The
increment fit alone is timed through calibrate._invert_vdd(q, weight, m,
phi, u, r_max), the signature 0.16.0 set, on a noisy target at extents up
to the 500 that ingest allows by default. A whole rho search is timed on
measured targets too: the brightkite and gowalla presets grown to 1e5
vertices, each fitted with the first component the CLI gives it.

To time another version, copy this file into that version's checkout and
run the same command from its root: pyproject.toml's pythonpath = ["src"]
puts the checkout's own src ahead of PYTHONPATH, so a PYTHONPATH that
points at another tree still times this one.
"""

import numpy as np
import pytest

from npagraph import (AerModelSpec, BaTreeSpec, DegreeDistribution,
                      IncrementDistribution, NpaModelSpec, RngStream,
                      WeightFunction, grow_composite, measure_edd, measure_vdd,
                      mix_edd, mix_vdd, solve_arc_dd, solve_vdd, symmetrize)
from npagraph import calibrate
from npagraph.calibrate import K_MAX, CalibrationTarget, fit
from npagraph.models import preset_brightkite, preset_gowalla

U = 20


def _linear(probs):
    return NpaModelSpec(weights=WeightFunction.linear(g=1),
                        increments=IncrementDistribution(min_arcs=1, probs=probs))


def _solved(model):
    sol = solve_vdd(model, K_MAX)
    return sol.q, symmetrize(solve_arc_dd(model, sol, U))


@pytest.fixture(scope="module")
def single_target():
    model = _linear((0.4, 0.3, 0.2, 0.1))
    q, theta = _solved(model)
    return CalibrationTarget(vdd=q, edd=theta, u=U,
                             mean_increment=model.increments.mean)


@pytest.fixture(scope="module")
def composite_target():
    rho, complement = 0.3, _linear((0.3, 0.7))
    (q1, th1), (q2, th2) = _solved(BaTreeSpec()), _solved(complement)
    m2 = complement.increments.mean
    m_mix = rho + (1.0 - rho) * m2
    return CalibrationTarget(
        vdd=mix_vdd([(q1, rho), (q2, 1.0 - rho)]),
        edd=mix_edd([(th1, 1.0, rho), (th2, m2, 1.0 - rho)]),
        u=U, mean_increment=m_mix)


def test_single_fit_rmax50(benchmark, single_target):
    res = benchmark(fit, single_target, weights="linear", r_max=50)
    assert res.distance >= 0.0


def test_table_free_single_fit(benchmark):
    # Phase 2 on the exact target of f_k = k**0.8: the exponent search
    # solves a candidate per step and beats the linear fit.
    model = NpaModelSpec(weights=WeightFunction.power(0.8, g=1),
                         increments=IncrementDistribution(min_arcs=1,
                                                          probs=(0.6, 0.4)))
    q, theta = _solved(model)
    target = CalibrationTarget(vdd=q, edd=theta, u=U,
                               mean_increment=model.increments.mean)
    res = benchmark(fit, target, weights="table-free", r_max=3)
    benchmark.extra_info["fits"] = res.evaluations
    assert res.report["phase"] == 2
    assert res.evaluations == 27


def test_composite_one_rho(benchmark, composite_target):
    # The first component's profile (one BA solve) is part of the step.
    res = benchmark(fit, composite_target, BaTreeSpec(), r_max=3,
                    rho_min=0.3, rho_max=0.3)
    assert res.report["rho"] == 0.3


@pytest.fixture(scope="module", params=["brightkite", "gowalla"])
def grown_composite(request):
    """A preset grown to 1e5 vertices from seed 1 and measured to u = 40,
    with the first component the CLI's --first names for it."""
    preset, first = {"brightkite": (preset_brightkite, BaTreeSpec()),
                     "gowalla": (preset_gowalla, AerModelSpec(n1=35000, a=2.75))
                     }[request.param]
    graph = grow_composite(preset(100000), RngStream(1))
    target = CalibrationTarget(vdd=measure_vdd(graph), edd=measure_edd(graph, 40),
                               u=40)
    return target, first


def test_grown_composite_rho_search(benchmark, grown_composite):
    # The whole rho search on the default grid, first-component profile
    # included; extra_info counts the rhos it fitted.
    target, first = grown_composite
    res = benchmark.pedantic(fit, args=(target, first),
                             kwargs={"r_max": 50}, rounds=3, iterations=1)
    benchmark.extra_info["rho"] = res.report["rho"]
    benchmark.extra_info["fits"] = len(res.report["grid"])
    assert 0.1 <= res.report["rho"] <= 0.35


@pytest.mark.parametrize("u", [20, 100, 300, 500])
def test_increment_fit_noisy_rmax50(benchmark, u):
    # The planted single target's vertex distribution, each probability
    # times a log-normal factor (sigma 0.3), fitted at a mean it does not
    # bear exactly.
    q = solve_vdd(_linear((0.4, 0.3, 0.2, 0.1)), K_MAX).q
    noisy = np.asarray(q.probs) * np.exp(
        np.random.default_rng(11).normal(0.0, 0.3, len(q.probs)))
    noisy *= (1.0 - q.truncation_mass) / noisy.sum()
    target = DegreeDistribution(min_degree=q.min_degree, probs=noisy,
                                truncation_mass=q.truncation_mass)
    inc = benchmark(calibrate._invert_vdd, target, WeightFunction.linear(g=1),
                    2.5, 5.0, u, 50)
    assert len(inc.probs) == 50
