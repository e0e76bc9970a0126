"""Input checks of the library that no command reaches: each raises its
own error type, with its message, before any work is done."""

import numpy as np
import pytest

from chaosde import chaos
from chaosde.density import ks_two_sample
from chaosde.errors import (
    ConfigError,
    InvalidDimensionError,
    SpaceMismatchError,
    UnsupportedOrderError,
)
from chaosde.hermite import GridDriver, HermiteSpec
from chaosde.malliavin import solution_derivative
from chaosde.sde import preset, solve_euler, solve_theta_all
from chaosde.wiener import HilbertVec, make_hilbert, sample_omega
from oracles import first_steps

SPACE, OTHER = make_hilbert(1, -1.0, 1.0, 4), make_hilbert(1, -1.0, 1.0, 5)
F1, F2 = chaos.SymTensor(SPACE, 1, np.ones(4)), chaos.SymTensor(SPACE, 2, np.eye(4))
ON_OTHER = chaos.SymTensor(OTHER, 2, np.eye(5))
DRAW = sample_omega(SPACE, 0)


def assemble_dx(steps: int, space):
    """solution_derivative of a block of one `additive` path of 4 steps on
    SPACE, from the DF factors of its first steps, over space."""
    coeffs, x0 = preset("additive")
    driver = GridDriver(HermiteSpec(q=1, H=0.7, m=1, space=SPACE, out_times=(1.0,)),
                        np.linspace(0.0, 1.0, 5))
    xi = SPACE.components(DRAW.xi[None])
    p = driver.projections(xi)
    batch = solve_theta_all(coeffs, solve_euler(coeffs, x0, (driver.times, driver.values(p))))
    return solution_derivative(coeffs, batch, first_steps(driver.deriv_vectors(p), steps), space)


CASES = {
    "spec-no-nodes": (lambda: HermiteSpec(q=2, H=0.7, m=1, space=SPACE, s_nodes=0),
                      InvalidDimensionError, "s_nodes must be positive"),
    "spec-components": (lambda: HermiteSpec(q=1, H=0.7, m=2, space=SPACE),
                        SpaceMismatchError, "component count"),
    "dx-df-shape": (lambda: assemble_dx(3, SPACE), InvalidDimensionError,
                    r"df must have shapes \(steps\+1,\), \(B, steps, m\) and \(steps, n\)"),
    "dx-other-space": (lambda: assemble_dx(4, OTHER), SpaceMismatchError,
                       "space does not match"),
    "ks-empty": (lambda: ks_two_sample([], [1.0]), ConfigError, "nonempty"),
    "inner-space": (lambda: chaos.tensor_inner(F2, ON_OTHER), SpaceMismatchError,
                    "different spaces"),
    "inner-order": (lambda: chaos.tensor_inner(F1, F2), SpaceMismatchError, "orders differ"),
    "contract-space": (lambda: chaos.contract(F2, ON_OTHER, 1), SpaceMismatchError,
                       "different spaces"),
    "contract-order": (lambda: chaos.contract(F1, F2, 2), InvalidDimensionError,
                       "contraction order 2"),
    "derivative-space": (lambda: chaos.malliavin_derivative(ON_OTHER, DRAW, 1),
                         SpaceMismatchError, "different spaces"),
    "taylor-space": (lambda: chaos.taylor_shift(F2, DRAW, HilbertVec(OTHER, np.ones(5)), 0.1),
                     SpaceMismatchError, "mismatched spaces"),
    "decompose-space": (lambda: chaos.decompose_along(F2, HilbertVec(OTHER, np.eye(5)[0])),
                        SpaceMismatchError, "different spaces"),
    "reintegrate-order-0": (lambda: chaos.reintegrate(chaos.SymTensor(SPACE, 0, 1.0), DRAW),
                            UnsupportedOrderError, "order >= 1"),
    "hermite-degree": (lambda: chaos.hermite_poly(-1, 0.5), InvalidDimensionError,
                       "nonnegative"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_check_raises(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()
