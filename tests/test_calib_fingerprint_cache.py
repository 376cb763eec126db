"""A posterior's draw set is hashed once per object.

``Posterior.fingerprint()`` and ``EmpiricalSpec.fingerprint()`` cache
the tag on the instance.  ``repro uq --posterior`` asks for the spec's
tag in ``run_sweep`` and in every dispatched chunk, and the chunk's spec
arrives pickled — so the cache must survive pickling.  Caching must not
change the tag itself, nor how the objects compare or hash.
"""

from __future__ import annotations

import pickle

import pytest

import repro.calib.posterior as posterior_mod
import repro.core.fingerprint as fingerprint_mod
from repro.calib.posterior import Posterior
from repro.uq.spec import EmpiricalSpec, MachineDraw

DRAWS = tuple(
    MachineDraw(L=9.0 + i / 7, o=5.0, g=14.0 - i / 3, G=0.023, ops={"op1": 1.0 + i / 100})
    for i in range(40)
)


@pytest.fixture
def hash_calls(monkeypatch):
    """Count ``posterior_fingerprint`` calls wherever the classes look it up."""
    calls = []
    real = fingerprint_mod.posterior_fingerprint

    def counting(draws):
        calls.append(len(draws))
        return real(draws)

    monkeypatch.setattr(fingerprint_mod, "posterior_fingerprint", counting)
    monkeypatch.setattr(posterior_mod, "posterior_fingerprint", counting)
    return calls


def _hash_or_error(obj):
    # a Posterior carries a dict (``config``), so it is unhashable either way
    try:
        return hash(obj)
    except TypeError as exc:
        return repr(exc)


def _objects():
    return (
        Posterior(draws=DRAWS, point_fit=DRAWS[0]),
        EmpiricalSpec(draws=DRAWS, source="calib-test"),
    )


@pytest.mark.parametrize("index", [0, 1], ids=["posterior", "empirical-spec"])
def test_hashed_once_even_after_pickling(hash_calls, index):
    obj = _objects()[index]
    tag = obj.fingerprint()
    assert obj.fingerprint() == tag
    clone = pickle.loads(pickle.dumps(obj))
    assert clone.fingerprint() == tag
    assert pickle.loads(pickle.dumps(clone)).fingerprint() == tag
    assert len(hash_calls) == 1


@pytest.mark.parametrize("index", [0, 1], ids=["posterior", "empirical-spec"])
def test_value_equality_and_hash_unchanged(index):
    cold = _objects()[index]
    warm = _objects()[index]
    tag = warm.fingerprint()
    assert tag == fingerprint_mod.posterior_fingerprint(DRAWS)
    assert warm == cold
    assert _hash_or_error(warm) == _hash_or_error(cold)
    assert pickle.loads(pickle.dumps(warm)) == cold
    assert repr(warm) == repr(cold)


def test_spec_tags_agree():
    post, spec = _objects()
    assert post.fingerprint() == spec.fingerprint()
    assert spec.store_tag() == f"uq-{spec.fingerprint()}"
    assert post.to_spec().source == f"calib-{post.fingerprint()}"
