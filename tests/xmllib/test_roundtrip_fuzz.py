"""Canonical-form fuzz: ``canonicalize(parse_xml(serialize(t))) == canonicalize(t)``.

This is the property the message path's wall-clock fast paths lean on
(DESIGN.md §16): a received tree — whether re-parsed from the wire bytes
or handed over as the sender's frozen tree — must canonicalize to the same
bytes as the tree that was sent, or signatures would break in transit.
The fuzz sweeps seeded random documents plus the known hazard corners:
mixed content (text interleaved with elements), namespaces used only by
attributes, and CR/TAB characters inside attribute values, which must
survive as character references rather than being whitespace-normalized
away by the receiving parser.

Seeded ``random.Random`` throughout — a failure prints its seed and the
document regenerates from it exactly.
"""

from __future__ import annotations

import random

from repro.testkit.generator import HOSTILE_TEXT, random_xml_element
from repro.xmllib import element, parse_xml, serialize
from repro.xmllib.c14n import canonicalize
from repro.xmllib.memo import caching_disabled


def round_trips(tree) -> bool:
    return canonicalize(parse_xml(serialize(tree))) == canonicalize(tree)


class TestCanonicalRoundTripFuzz:
    def test_seeded_generator_sweep(self):
        for seed in range(250):
            tree = random_xml_element(random.Random(20_000 + seed))
            wire = serialize(tree)
            assert canonicalize(parse_xml(wire)) == canonicalize(tree), (
                f"seed {seed}:\n{wire}"
            )

    def test_sweep_agrees_with_uncached_canonicalizer(self):
        # The same property must hold with every cache disabled, and the
        # cached and uncached canonical bytes must be identical.
        for seed in range(40):
            tree = random_xml_element(random.Random(21_000 + seed))
            cached = canonicalize(tree)
            assert canonicalize(parse_xml(serialize(tree))) == cached
            with caching_disabled():
                assert canonicalize(tree) == cached

    def test_mixed_content(self):
        rng = random.Random(4242)
        for _ in range(60):
            children = []
            for _ in range(rng.randrange(1, 6)):
                children.append(rng.choice(["alpha ", "\n", "x<y&z", "  "]))
                children.append(element("{urn:mix}i", str(rng.randrange(9))))
            children.append("tail\r\n")
            tree = element("{urn:mix}p", *children)
            assert round_trips(tree)

    def test_attribute_only_namespaces(self):
        # The attribute's namespace is the only use of urn:attr-only in the
        # document; prefix allocation and c14n must both still cover it.
        tree = element("plain", element("child", "x"))
        tree.set("{urn:attr-only}marker", "1")
        tree.children[0].set("{urn:attr-only-2}other", "2")
        assert round_trips(tree)
        canonical = canonicalize(tree)
        assert "urn:attr-only" in canonical and "urn:attr-only-2" in canonical

    def test_cr_and_tab_in_attribute_values(self):
        for hostile in ["a\rb", "a\tb", "a\nb", "\r\t\n", "mixed \r tab\t"]:
            tree = element("{urn:h}probe", "body")
            tree.set("{urn:h}value", hostile)
            reparsed = parse_xml(serialize(tree))
            assert reparsed.get("{urn:h}value") == hostile
            assert canonicalize(reparsed) == canonicalize(tree)

    def test_hostile_text_corpus(self):
        for hostile in HOSTILE_TEXT:
            tree = element("probe", hostile, element("sep"), hostile)
            assert round_trips(tree)
