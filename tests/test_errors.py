"""Library input checks raise typed ``InputError``s (CLI exit 2) that are
also ``ValueError``s."""

import pytest

from cqcovert.divergences import validate_distribution
from cqcovert.errors import InputError, InvalidDistribution, InvalidParameter
from cqcovert.scaling import converse_bounds, optimize_ptilde


@pytest.mark.parametrize("probs", [[[0.5, 0.5]], [float("nan"), 1.0], [-0.1, 1.1], [0.5, 0.6]])
def test_validate_distribution(probs):
    with pytest.raises(InvalidDistribution) as info:
        validate_distribution(probs)
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("probs, message", [([-0.5, 1.5], "negative probability -0.5"),
                                            ([1.5], "probabilities sum to 1.5, not 1")])
def test_validate_distribution_names_the_number_as_a_plain_float(probs, message):
    with pytest.raises(InvalidDistribution) as info:
        validate_distribution(probs)
    assert str(info.value) == message


@pytest.mark.parametrize("objective, weight", [("max-rate", 0.5), ("tradeoff", -1.0),
                                               ("tradeoff", float("inf"))])
def test_optimize_ptilde_objective_and_weight(canonical_channel, objective, weight):
    with pytest.raises(InvalidParameter) as info:
        optimize_ptilde(canonical_channel, objective, weight=weight)
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("mu, delta", [(1.0, 0.1), (-0.1, 0.1), (0.1, 1.0), (0.1, -0.5)])
def test_converse_bound_mu_and_delta(canonical_channel, mu, delta):
    with pytest.raises(InvalidParameter) as info:
        converse_bounds(canonical_channel, [1.0], mu=mu, n=10, delta=delta, epsilon=0.1)
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)
