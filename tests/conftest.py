"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from mouldcalc import special


@pytest.fixture
def fresh_conjugations():
    """Empty the singulator's per-depth conjugation caches before and after
    the test.  Before: a conjugation built by an earlier test would hide a
    patched solver or factorization sum.  After: one built under a patch
    must not reach a later test."""
    caches = (special._pal_conjugations, special._paj_conjugation)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
