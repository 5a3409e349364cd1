"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from mouldcalc import moulds, solutions, special


def _empty(caches) -> None:
    for cache in caches:
        cache.cache_clear()
    moulds._NODES.clear()


@pytest.fixture
def fresh_conjugations():
    """Empty the singulator's per-depth conjugation caches, the xi cache
    and the node table before and after the test.  Before: a conjugation,
    xi or lazy node built by an earlier test, perhaps still held by a cycle
    that no collection has freed, would hide a patched solver or
    factorization sum.  After: one built under a patch must not reach a
    later test."""
    caches = (special._pal_conjugations, special._paj_conjugation, solutions.xi)
    _empty(caches)
    yield
    _empty(caches)
