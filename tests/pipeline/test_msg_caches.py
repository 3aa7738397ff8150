"""Cache observability on the message path (DESIGN.md §16).

The content-keyed caches expose hit/miss counters precisely so tier-1
can pin the behaviour the memo record depends on: in a two-message
soak the second, identical message is served from the c14n/DSig caches,
while a mutated message keys differently and misses.  And the caches
must be wall-clock-only — the virtual cost ledger of a soak run with
caching enabled is bit-identical to one run under
:func:`caching_disabled`.
"""

from __future__ import annotations

import pytest

from repro.apps.counter.deploy import (
    CounterScenario,
    build_wsrf_rig,
)
from repro.container.security import SecurityMode
from repro.crypto import CertificateAuthority, sign_element
from repro.sim.costs import CostModel
from repro.xmllib import element
from repro.xmllib.memo import (
    cache_stats,
    caching_disabled,
    clear_caches,
    get_cache,
    reset_cache_stats,
)


def x509_rig():
    return build_wsrf_rig(
        CounterScenario(mode=SecurityMode.X509, colocated=False, costs=CostModel())
    )


class TestTwoMessageSoak:
    @pytest.fixture()
    def soak_stats(self):
        """Run create + two identical Gets; return stats bracketing Get #2."""
        clear_caches()
        rig = x509_rig()
        counter = rig.client.create()
        rig.client.get(counter)  # message 1: populates every cache
        reset_cache_stats()
        rig.client.get(counter)  # message 2: should ride the caches
        stats = cache_stats()
        return rig, counter, stats

    def test_second_message_hits_the_signature_caches(self, soak_stats):
        _rig, _counter, stats = soak_stats
        assert stats["dsig.sign"]["hits"] > 0
        assert stats["dsig.sign"]["misses"] == 0
        assert stats["dsig.verify"]["hits"] > 0
        assert stats["dsig.verify"]["misses"] == 0
        assert stats["c14n.text"]["misses"] == 0

    def test_mutated_message_misses(self, soak_stats):
        rig, counter, _ = soak_stats
        # Distinct content (set then get: the resource value changed, so
        # Body bytes differ) must key fresh signatures, not reuse cached ones.
        reset_cache_stats()
        rig.client.set(counter, 5)
        rig.client.get(counter)
        stats = cache_stats()
        assert stats["dsig.sign"]["misses"] > 0

    def test_counters_visible_per_cache(self):
        clear_caches()
        reset_cache_stats()
        ca = CertificateAuthority.create(seed=7)
        cert, keypair = ca.issue_identity("alice", seed=11)
        body = element("{urn:t}Body", "payload")
        sign_element(body, keypair, cert)
        assert get_cache("dsig.sign").stats.misses == 1
        sign_element(body, keypair, cert)
        assert get_cache("dsig.sign").stats.hits == 1
        body.append("mutated")
        sign_element(body, keypair, cert)
        assert get_cache("dsig.sign").stats.misses == 2


class TestCachesAreWallClockOnly:
    def test_soak_ledger_identical_cached_vs_uncached(self):
        def soak():
            rig = x509_rig()
            counter = rig.client.create()
            for _ in range(3):
                rig.client.get(counter)
            rig.client.set(counter, 2)
            value = rig.client.get(counter)
            return value, rig.deployment.network.clock.now, rig.deployment.network.metrics.total_bytes

        clear_caches()
        cached = soak()
        with caching_disabled():
            uncached = soak()
        assert cached == uncached
