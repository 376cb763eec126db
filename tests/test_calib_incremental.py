"""Incremental posterior evaluation is bit-identical to the full formula.

:meth:`repro.calib.CalibModel.log_posterior` keeps the per-group terms of
the last vector it evaluated and recomputes only the groups that read a
dimension that moved.  Whatever the call history, each result must be
the exact bit pattern of a full evaluation; the full formula is kept
here as the reference.  The sampler-side half pins the cost: one
componentwise Metropolis sweep builds at most five validated
:class:`~repro.core.loggp.LogGPParameters`, and the chain still makes
exactly one posterior call per proposal (plus the start).
"""

import sys
import threading

import numpy as np
import pytest

import repro.calib.likelihood as likelihood
from repro.calib import (
    CalibModel,
    MCMCConfig,
    MeasurementSet,
    measure_emulator,
    run_mcmc,
)
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.fitting import microbench_model
from repro.core.loggp import LogGPParameters
from repro.uq.spec import LOGGP_PARAMS


def reference_log_posterior(model: CalibModel, theta) -> float:
    """The full evaluation: every group's term from scratch, in order."""
    lp = 0.0
    for s in model.stats:
        if s.kind == "op":
            j = len(LOGGP_PARAMS) + model.ops.index(s.op)
            base = float(np.log(model.base_cost_model.cost(s.op, s.size)))
            model_log = float(theta[j]) + base
        else:
            params = LogGPParameters(
                L=float(np.exp(theta[0])),
                o=float(np.exp(theta[1])),
                g=float(np.exp(theta[2])),
                G=float(np.exp(theta[3])),
                P=model.mset.num_procs,
            )
            model_log = float(np.log(microbench_model(params, s.kind, s.size)))
        sigma = max(s.sd_log, 1e-9)
        resid = s.mean_log - model_log
        lp -= (s.n * resid * resid + s.ss_log) / (2.0 * sigma * sigma)
    dev = theta - model.initial()
    lp -= float(np.sum(dev * dev)) / (2.0 * model.prior_tau**2)
    return lp


def _bits(x: float) -> str:
    return float(x).hex()


def walk(model: CalibModel, seed: int):
    """A seeded call history mixing every way a vector can change.

    Single-dimension moves in every dimension, each accepted or rejected
    (a rejection makes the next call differ in two dimensions), joint
    jumps over random subsets, exact repeats, and signed zeros.
    """
    rng = np.random.default_rng(seed)
    dim = len(model.names)
    cur = model.initial()
    yield cur.copy()
    for sweep in range(6):
        for j in range(dim):
            prop = cur.copy()
            prop[j] += 0.05 * rng.standard_normal()
            yield prop
            if rng.random() < 0.5:
                cur = prop
        jump = cur.copy()
        moved = rng.random(dim) < 0.5
        jump[moved] += 0.05 * rng.standard_normal(int(moved.sum()))
        yield jump
        yield jump.copy()  # a repeat: nothing moved
        yield cur.copy()  # back: every jumped dimension moves again
    for j in (0, dim - 1):
        zeros = cur.copy()
        zeros[j] = 0.0
        yield zeros
        zeros = zeros.copy()
        zeros[j] = -0.0  # equal to 0.0, different bits
        yield zeros
        yield cur.copy()


@pytest.fixture(scope="module")
def cost_model():
    return CalibratedCostModel()


@pytest.fixture(scope="module")
def fig7_mset(cost_model):
    return measure_emulator(MEIKO_CS2, cost_model, noise_sigma=0.05, repeats=5, seed=2)


@pytest.fixture(scope="module")
def models(cost_model, fig7_mset):
    network_only = measure_emulator(
        MEIKO_CS2, None, noise_sigma=0.05, repeats=5, seed=4
    )
    # an imported set: op groups first, groups interleaved, and a
    # zero-spread op group (its dimension's proposal scale is zero)
    docs = [m.to_dict() for m in fig7_mset.measurements]
    ops = [d for d in docs if d["kind"] == "op" and d["op"] != "op2"]
    net = [d for d in docs if d["kind"] != "op"]
    flat = [
        {"kind": "op", "value": 250.0, "size": 16, "op": "op2"} for _ in range(3)
    ]
    mixed = [d for pair in zip(ops, net) for d in pair] + ops[len(net):] + flat
    imported = MeasurementSet.from_dict(
        {"measurements": mixed, "num_procs": 8, "noise_sigma": 0.0, "seed": 0}
    )
    return {
        "fig7": CalibModel(fig7_mset, cost_model),
        # a prior as strong as the data: its sum's rounding shows in lp
        "tight-prior": CalibModel(fig7_mset, cost_model, prior_tau=0.002),
        "no-ops": CalibModel(network_only),
        "imported": CalibModel(imported, cost_model),
    }


@pytest.mark.parametrize("name", ["fig7", "tight-prior", "no-ops", "imported"])
def test_every_call_matches_the_full_formula(models, name):
    model = models[name]
    fresh = CalibModel(model.mset, model.base_cost_model, prior_tau=model.prior_tau)
    calls = 0
    for theta in walk(fresh, seed=11):
        assert _bits(fresh.log_posterior(theta)) == _bits(
            reference_log_posterior(fresh, theta)
        ), f"call {calls}: {theta!r}"
        calls += 1
    assert calls > 6 * len(fresh.names)


def test_imported_set_orders_op_groups_first(models):
    model = models["imported"]
    assert model.stats[0].kind == "op"
    assert 0.0 in model.proposal_scales().tolist()


def test_two_models_evaluated_alternately(models, cost_model, fig7_mset):
    a = CalibModel(fig7_mset, cost_model)
    b = CalibModel(models["no-ops"].mset)
    for ta, tb in zip(walk(a, seed=3), walk(b, seed=5)):
        assert _bits(a.log_posterior(ta)) == _bits(reference_log_posterior(a, ta))
        assert _bits(b.log_posterior(tb)) == _bits(reference_log_posterior(b, tb))


def test_threads_sharing_one_model_get_full_formula_bits(models):
    """Each call reads the kept (vector, terms) pair once and replaces
    it whole with fresh containers: threads interleaving their calls can
    cost each other recomputations, never a term of the wrong vector."""
    shared = CalibModel(models["fig7"].mset, models["fig7"].base_cost_model)
    histories = [
        [t for r in range(8) for t in walk(shared, seed=100 * k + r)] for k in range(4)
    ]
    expected = [
        [_bits(reference_log_posterior(shared, t)) for t in h] for h in histories
    ]
    got = [[] for _ in histories]

    def evaluate(k):
        for theta in histories[k]:
            got[k].append(_bits(shared.log_posterior(theta)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_caller_mutating_its_vector_does_not_stale_the_terms(models):
    model = CalibModel(models["fig7"].mset, models["fig7"].base_cost_model)
    theta = model.initial()
    model.log_posterior(theta)
    theta[0] += 0.1  # in place: the model must not be holding this array
    theta[5] -= 0.1
    assert _bits(model.log_posterior(theta)) == _bits(
        reference_log_posterior(model, theta)
    )


def test_wrong_length_raises_and_keeps_the_cache(models):
    full = models["fig7"]
    model = CalibModel(full.mset, full.base_cost_model)
    theta = model.initial()
    model.log_posterior(theta)
    for bad in (theta[:4], np.append(theta, 0.0), theta[None, :]):
        with pytest.raises(ValueError, match="shape"):
            model.log_posterior(bad)
    moved = theta.copy()
    moved[2] += 0.01
    assert _bits(model.log_posterior(moved)) == _bits(
        reference_log_posterior(model, moved)
    )


def test_invalid_network_dimension_raises_and_keeps_the_cache(models):
    model = CalibModel(models["fig7"].mset, models["fig7"].base_cost_model)
    theta = model.initial()
    model.log_posterior(theta)
    bad = theta.copy()
    bad[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        model.log_posterior(bad)
    moved = theta.copy()
    moved[6] += 0.01
    assert _bits(model.log_posterior(moved)) == _bits(
        reference_log_posterior(model, moved)
    )


@pytest.mark.parametrize("name", ["fig7", "no-ops", "imported"])
def test_sampler_builds_at_most_five_parameter_sets_per_sweep(
    models, name, monkeypatch
):
    source = models[name]
    model = CalibModel(source.mset, source.base_cost_model)
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return LogGPParameters(*args, **kwargs)

    monkeypatch.setattr(likelihood, "LogGPParameters", counting)
    calls = []
    inner = model.log_posterior

    def counted(theta):
        calls.append(1)
        return inner(theta)

    model.log_posterior = counted
    config = MCMCConfig(draws=40, burn=20, thin=2, seed=1)
    run_mcmc(model, config)
    sweeps = config.burn + config.draws * config.thin
    live = int(np.count_nonzero(model.proposal_scales()))
    assert len(calls) == 1 + sweeps * live
    assert len(built) <= 1 + 5 * sweeps
    assert len(built) >= sweeps  # every sweep moves the network once at least
