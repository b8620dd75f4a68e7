"""Request generators: reproducible from the seed, with fixed round composition."""

import itertools
import json

import pytest

import workloads
from gammahodge import hodge_discrete


def _dump(workload, seed, n_rounds=2):
    batches = itertools.islice(workloads.rounds(workload, seed), n_rounds)
    return json.dumps([[r.to_json() for r in batch] for batch in batches]).encode()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _dump(workload, 7) == _dump(workload, 7)
    assert _dump(workload, 7) != _dump(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_composition_does_not_depend_on_the_seed(workload):
    def shape(seed):
        batch = next(workloads.rounds(workload, seed))
        return sorted(r.command for r in batch)
    assert shape(1) == shape(2) == shape(3)


def test_warmup_stream_differs_from_measured_stream():
    measured = next(workloads.rounds("poisson", 1))
    warmup = next(workloads.rounds("poisson", 1, "warmup"))
    assert [r.argv for r in measured] != [r.argv for r in warmup]


@pytest.mark.parametrize("family, size", [
    (workloads.torus, (3, 4)),
    (workloads.sphere, (2,)),
    (workloads.sphere, (4,)),
    (workloads.wedge, (3, 4)),
])
def test_family_homology_is_what_the_generator_claims(family, size):
    maximal, betti, chains = family(*size)
    K = hodge_discrete.from_maximal(maximal)
    assert list(hodge_discrete.betti_numbers(K)) == betti
    assert [K.chain_dim(k) for k in range(K.max_dim + 1)] == chains
