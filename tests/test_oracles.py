import numpy as np
import pytest

from ttalab.errors import InvalidInput
from ttalab.numeric import entropy, entropy_grad_logits, softmax

from oracles import finite_diff_check


class TestFiniteDiffCheck:
    def test_linear_function_is_exact(self, rng):
        x = rng.normal(size=7)
        err = finite_diff_check(np.sum, x, np.ones(7))
        assert err < 1e-10

    def test_entropy_softmax_composition(self, rng):
        z = rng.normal(size=6)
        err = finite_diff_check(lambda v: entropy(softmax(v)), z,
                                entropy_grad_logits(z))
        assert err < 1e-5

    def test_non_finite_function_rejected(self):
        def bad(v):
            return np.inf

        with pytest.raises(InvalidInput):
            finite_diff_check(bad, np.ones(2), np.ones(2))

