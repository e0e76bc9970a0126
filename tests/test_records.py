"""The package's records: read-only where they were frozen dataclasses, and
equal and hashed by value where code compares them."""

import pickle

import numpy as np
import pytest

from chaosde.chaos import SymTensor
from chaosde.density import DensityEstimate, Scenario
from chaosde.hermite import HermiteSpec, build_kernels, simulate_path
from chaosde.malliavin import MalliavinMatrix
from chaosde.sde import preset
from chaosde.wiener import HilbertVec, make_hilbert, sample_omega
from chaosde.young import YoungResult


def space():
    return make_hilbert(1, -1.0, 1.0, 4)


def spec():
    return HermiteSpec(q=2, H=0.7, m=1, space=space(), s_nodes=8, out_times=(0.5, 1.0))


#: record name -> (a builder of one record, a field of it, and for a record
#: equal by value a builder of one that differs in that field, else None)
FROZEN = {
    "HilbertDisc": (space, "n", lambda: make_hilbert(1, -1.0, 1.0, 5)),
    "HilbertVec": (lambda: HilbertVec(space(), np.ones(4)), "coords", None),
    "GaussianDraw": (lambda: sample_omega(space(), 3), "xi", None),
    "SymTensor": (lambda: SymTensor(space(), 1, np.ones(4)), "coeffs", None),
    "HermiteSpec": (spec, "out_times", lambda: HermiteSpec(q=2, H=0.7, m=1, space=space(),
                                                           s_nodes=8, out_times=(1.0,))),
    "KernelField": (lambda: build_kernels(spec()), "rho", None),
    "DrivingPath": (lambda: simulate_path(build_kernels(spec()), sample_omega(space(), 3)),
                    "values", None),
    "SdeCoefficients": (lambda: preset("additive")[0], "sigma", None),
    "YoungResult": (lambda: YoungResult(np.zeros((1, 1, 4)), 1), "refinement_levels", None),
    "MalliavinMatrix": (lambda: MalliavinMatrix(np.ones((2, 1, 1)), np.ones(2), np.ones(2),
                                                np.ones(2, dtype=bool)), "det", None),
    "Scenario": (lambda: Scenario(preset="additive", q=1, H=0.7, steps=8, n=16), "steps", None),
    "DensityEstimate": (lambda: DensityEstimate(np.arange(3.0), np.ones(3), 0.5), "bandwidth",
                        None),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    build, field, build_other = FROZEN[name]
    record = build()
    assert type(record).__name__ == name
    before = getattr(record, field)
    for assign in (lambda: setattr(record, field, None), lambda: delattr(record, field),
                   lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            assign()
    assert getattr(record, field) is before
    if build_other is not None:
        twin = build()
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
        assert build_other() != record and record != type(record).__name__
