import gc

import pytest

from grasspencils import chains, poly
from grasspencils.chains import standard_monomials
from grasspencils.grassmann import (_leading_pair, hilbert_function,
                                    plucker_indices, straightening_rules)
from grasspencils.linalg import ResourceLimitError
from grasspencils.poly import monomials_of_degree
from grasspencils.symmetry import invariant_multiplicities
from candidate_oracle import invariant_candidates


@pytest.mark.parametrize("r,n,d", [(2, 4, 0), (2, 4, 3), (2, 5, 4),
                                   (2, 6, 3), (3, 6, 3), (3, 7, 2)])
def test_chains_are_the_standard_monomials(r, n, d):
    rules = straightening_rules(r, n)
    chains = standard_monomials(r, n, d)
    assert chains == tuple(e for e in monomials_of_degree(
        len(plucker_indices(r, n)), d) if _leading_pair(e, rules) is None)
    assert len(chains) == hilbert_function(r, n, d)
    assert standard_monomials(r, n, -1) == ()


@pytest.mark.parametrize("r,n,d,count", [
    (2, 4, 4, 9), (2, 4, 8, 41), (2, 4, 12, 129), (2, 5, 5, 16),
    (3, 5, 5, 16), (2, 6, 6, 30), (3, 6, 6, 60), (2, 7, 7, 57),
    (2, 5, 10, 226)])
def test_invariant_chains_are_the_standard_invariant_monomials(r, n, d,
                                                               count):
    # the same monomials in the same (canonical) order
    rules = straightening_rules(r, n)
    chains = standard_monomials(r, n, d, invariant_multiplicities(r, n, d))
    assert chains == tuple(e for e in invariant_candidates(r, n, d)
                           if _leading_pair(e, rules) is None)
    assert len(chains) == count


def test_chain_listing_counts_before_it_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError("chains built before the size guard")

    monkeypatch.setattr(poly, "LISTING_GUARD", 128)
    monkeypatch.setattr(chains, "_tableaux", refuse)
    with pytest.raises(ResourceLimitError, match=r"standard monomials of "
                       r"G\(2,4\) in degree 12 with 129 monomials exceeds"):
        standard_monomials(2, 4, 12, invariant_multiplicities(2, 4, 12))
    with pytest.raises(ResourceLimitError, match=r"standard monomials of "
                       r"G\(3,6\) in degree 3 with 980 monomials exceeds"):
        standard_monomials(3, 6, 3)


def test_a_listing_leaves_nothing_to_the_cyclic_collector():
    # the searches recurse through module functions, not closures that
    # refer to themselves, so their memo dicts and rows die with the call
    group_sizes = invariant_multiplicities(3, 6, 6)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        standard_monomials(3, 6, 6, group_sizes)
        standard_monomials(2, 5, 4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
