"""The ``memo`` record pins the message-path caches exactly.

Its cell is the fixed 400-Get signed soak plus the 5k-document xmldb
build; each test below measures it in full (~2.5 s a run).
"""

from repro.experiments import check_against_record, run_in_memory
from repro.experiments.cli import DEFAULT_RESULTS_DIR
from repro.experiments.engine import ExperimentEngine
from repro.experiments.registry import get_spec
from repro.xmllib.memo import caching_disabled

SPEC = get_spec("memo")


def test_planted_caching_disabled_fails_the_gate():
    """A memo layer that stops caching must change the recorded counts."""
    recorded = ExperimentEngine(DEFAULT_RESULTS_DIR).load_record("memo")
    with caching_disabled():
        fresh = run_in_memory(SPEC)
    report = check_against_record(SPEC, recorded, fresh)
    assert not report.ok
    for cache in ("dsig.sign", "dsig.verify", "x509.check", "serialize.fragment"):
        assert any(
            line.startswith(f"run=all:soak.cache_stats.{cache}.hits:")
            for line in report.mismatches
        ), report.mismatches


def test_same_process_repeat_matches():
    """The counts do not depend on what an earlier run left in the caches."""
    report = check_against_record(SPEC, run_in_memory(SPEC), run_in_memory(SPEC))
    assert report.ok, report.lines()
