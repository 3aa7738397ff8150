"""Message-path cache counts: a fixed signed soak and the xmldb build.

The signed message path is memoized — content-keyed c14n/DSig caches,
interned QNames, serialized-fragment reuse (DESIGN.md §16).  This bench
records *what* the caches do, not how fast they make us: every figure
here is a pure function of the code, so the ``memo`` experiment spec
gates it exactly.  Wall-clock throughput is ``wallbench/``'s job.

One run records:

* the hit/miss counts of all six caches over a fixed soak of signed
  distributed Get round trips on the paper's hardest counter
  configuration (X.509 signing, WSRF stack);
* the virtual ms per Get of that soak and of a shorter one run under
  :func:`repro.xmllib.memo.caching_disabled` — equal, because caching
  never moves a virtual cost;
* the cache counts and the lookup result of the 5k-document indexed
  xmldb registry build plus one host lookup.  The build is one-shot
  trees, so it engages no content cache at all.
"""

from __future__ import annotations

from repro.xmllib.memo import cache_stats, caching_disabled, clear_caches, reset_cache_stats

TITLE = "Message-path cache counts: signed soak and xmldb build"

#: Gets in the cached soak / the uncached one (which only checks the
#: virtual cost, so it stays short).
SOAK_MESSAGES = 400
SOAK_UNCACHED_MESSAGES = 40
#: Documents in the xmldb registry build.
XMLDB_DOCS = 5000


def _build_rig():
    from repro.apps.counter.deploy import CounterScenario, build_wsrf_rig
    from repro.container.security import SecurityMode
    from repro.sim.costs import CostModel

    scenario = CounterScenario(
        mode=SecurityMode.X509, colocated=False, costs=CostModel()
    )
    return build_wsrf_rig(scenario)


def run_soak(messages: int) -> float:
    """Virtual ms per signed distributed Get over ``messages`` round trips
    (after a Create and two warm-up Gets)."""
    rig = _build_rig()
    counter = rig.client.create()
    rig.client.get(counter)
    rig.client.get(counter)
    clock = rig.deployment.network.clock
    start = clock.now
    for _ in range(messages):
        rig.client.get(counter)
    return round((clock.now - start) / messages, 6)


def run_memo() -> dict:
    """Cache counts of the soak and the xmldb build, virtual ms cached vs not."""
    from repro.bench.xmldb import PREFIXES, build_corpus, host_lookup

    clear_caches()
    reset_cache_stats()
    cached_ms = run_soak(SOAK_MESSAGES)
    soak_stats = cache_stats()
    with caching_disabled():
        uncached_ms = run_soak(SOAK_UNCACHED_MESSAGES)

    clear_caches()
    reset_cache_stats()
    collection = build_corpus(XMLDB_DOCS, indexed=True)
    matches = collection.query_keys(host_lookup(XMLDB_DOCS), PREFIXES)
    return {
        "soak": {
            "scenario": "counter Get round trip: WSRF stack, X.509 signing, distributed",
            "messages": SOAK_MESSAGES,
            "cache_stats": soak_stats,
            "virtual_ms_per_op": {"cached": cached_ms, "uncached": uncached_ms},
        },
        "xmldb": {
            "scenario": "indexed 5k-doc registry build + host-lookup query",
            "docs": XMLDB_DOCS,
            "cache_stats": cache_stats(),
            "lookup_matches": len(matches),
        },
    }
