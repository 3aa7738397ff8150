"""Mutation-safe memoization: cached bytes must never go stale.

The c14n/DSig caches key on content keys.  A mutable tree memoizes
nothing, so its key is recomputed and follows every edit; a frozen tree
memoizes its keys, and every mutator on it raises.  These tests pin the
contract from both sides: freezing at the unit level, and a seeded
property test asserting that *any* mutation after a cached
``canonicalize()`` / ``sign_element()`` produces output byte-identical to
ground truth — the same computation run under :func:`caching_disabled` on
a fresh deep copy — including mutations made through aliased child
references.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import CertificateAuthority, DsigError, sign_element, verify_element
from repro.soap import WireMessage, build_envelope
from repro.xmllib import QName
from repro.xmllib.c14n import canonicalize
from repro.xmllib.element import XmlElement, content_key, element, freeze
from repro.xmllib.memo import caching_disabled


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority.create(seed=7)


@pytest.fixture(scope="module")
def identity(ca):
    return ca.issue_identity("alice", seed=11)


#: Every way to edit a node, each applied to a frozen node must raise.
MUTATORS = {
    "append": lambda n: n.append("x"),
    "append_element": lambda n: n.append(element("{u}new")),
    "extend": lambda n: n.extend(["x"]),
    "set": lambda n: n.set("{u}a", "v"),
    "children=": lambda n: setattr(n, "children", []),
    "attributes=": lambda n: setattr(n, "attributes", {}),
    "children.append": lambda n: n.children.append("x"),
    "children.extend": lambda n: n.children.extend(["x"]),
    "children.insert": lambda n: n.children.insert(0, "x"),
    "children.remove": lambda n: n.children.remove(n.children[0]),
    "children.pop": lambda n: n.children.pop(),
    "children.clear": lambda n: n.children.clear(),
    "children.sort": lambda n: n.children.sort(key=str),
    "children.reverse": lambda n: n.children.reverse(),
    "children[i]=": lambda n: n.children.__setitem__(0, "x"),
    "del children[i]": lambda n: n.children.__delitem__(0),
    "children+=": lambda n: n.children.__iadd__(["x"]),
    "attributes[k]=": lambda n: n.attributes.__setitem__(QName.parse("a"), "2"),
    "del attributes[k]": lambda n: n.attributes.__delitem__(QName.parse("a")),
    "attributes.update": lambda n: n.attributes.update({QName.parse("b"): "2"}),
    "attributes.pop": lambda n: n.attributes.pop(QName.parse("a")),
    "attributes.popitem": lambda n: n.attributes.popitem(),
    "attributes.clear": lambda n: n.attributes.clear(),
    "attributes.setdefault": lambda n: n.attributes.setdefault(QName.parse("b"), "2"),
    "attributes|=": lambda n: n.attributes.__ior__({QName.parse("b"): "2"}),
}


def sample_tree() -> XmlElement:
    return element(
        "{u}root", element("{u}child", "x", attrs={"a": "1"}), "mid", attrs={"a": "1"}
    )


class TestFrozen:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_every_mutator_raises(self, name):
        tree = freeze(sample_tree())
        key = content_key(tree)
        text = canonicalize(tree)
        for node in (tree, tree.children[0]):
            with pytest.raises(TypeError, match="frozen"):
                MUTATORS[name](node)
        assert content_key(tree) == key
        with caching_disabled():
            assert canonicalize(tree) == text

    def test_every_descendant_is_frozen(self):
        tree = freeze(sample_tree())
        assert tree.frozen and all(node.frozen for node in tree.descendants())

    def test_freeze_stops_at_frozen_subtrees(self):
        child = freeze(element("{u}child", "x"))
        key = content_key(child)
        tree = freeze(element("{u}root", child))
        assert tree.children[0] is child and content_key(child) == key

    def test_mutable_nodes_memoize_nothing(self):
        tree = sample_tree()
        content_key(tree)
        canonicalize(tree)
        assert not tree.frozen and all(not node.frozen for node in tree.descendants())

    def test_child_shared_by_two_sent_envelopes_is_read_only(self):
        shared = element("{u}shared", "payload")
        first = build_envelope([], [element("{u}a", shared)])
        second = build_envelope([], [element("{u}b", shared)])
        texts = [WireMessage.from_envelope(env).text for env in (first, second)]
        alias = second.body_child().children[0]
        assert alias is shared
        for name, mutate in MUTATORS.items():
            with pytest.raises(TypeError):
                mutate(alias)
        for env, text in zip((first, second), texts):
            assert WireMessage.from_envelope(env).text == text

    def test_copy_is_mutable_with_an_equal_key(self):
        tree = freeze(sample_tree())
        key = content_key(tree)
        clone = tree.copy()
        assert not clone.frozen and all(not node.frozen for node in clone.descendants())
        assert content_key(clone) == key
        clone.children[0].append("edited")
        clone.set("{u}b", "2")
        assert content_key(clone) != key
        assert content_key(tree) == key
        with caching_disabled():
            assert canonicalize(tree) == canonicalize(sample_tree())


class TestVersionCounter:
    """A mutable tree keeps no memo, so its content key is its version:
    any edit, even through an aliased child, changes the next key."""

    def test_content_key_changes_on_mutation(self):
        root = element("{u}root", element("{u}child", "x"))
        key = content_key(root)
        assert content_key(root) == key  # memoized, stable
        root.children[0].set("id", "1")
        assert content_key(root) != key

    def test_mutation_via_aliased_reference_invalidates(self):
        shared = element("{u}shared", "payload")
        root = element("{u}root", shared)
        key = content_key(root)
        alias = root.children[0]
        assert alias is shared
        alias.append("more")
        assert content_key(root) != key


def random_tree(rng: random.Random, depth: int = 0) -> XmlElement:
    """A small random tree mixing namespaces, attributes and text."""
    ns = rng.choice(["urn:a", "urn:b", ""])
    node = element(f"{{{ns}}}n{rng.randrange(4)}" if ns else f"n{rng.randrange(4)}")
    for _ in range(rng.randrange(3)):
        node.set(
            rng.choice(["k", "{urn:attr}k", "id"]) + str(rng.randrange(3)),
            f"v{rng.randrange(10)}",
        )
    for _ in range(rng.randrange(4) if depth < 3 else 0):
        if rng.random() < 0.4:
            node.append(f"text{rng.randrange(10)}")
        else:
            node.append(random_tree(rng, depth + 1))
    return node


def mutate(rng: random.Random, root: XmlElement) -> None:
    """One random mutation somewhere in the tree, possibly via an alias."""
    nodes = [root, *root.descendants()]
    target = rng.choice(nodes)
    kind = rng.randrange(3)
    if kind == 0:
        target.append(f"mutated{rng.randrange(100)}")
    elif kind == 1:
        target.set("mutated", str(rng.randrange(100)))
    else:
        target.children.insert(
            rng.randrange(len(target.children) + 1), element("{urn:mut}new")
        )


def ground_truth_c14n(root: XmlElement) -> str:
    with caching_disabled():
        return canonicalize(root.copy())


class TestMutationCoherence:
    def test_canonicalize_after_mutation_matches_fresh_copy(self):
        rng = random.Random(90901)
        for _ in range(40):
            tree = random_tree(rng)
            canonicalize(tree)  # populate the cache
            mutate(rng, tree)
            assert canonicalize(tree) == ground_truth_c14n(tree)

    def test_each_mutation_kind_explicitly(self):
        for mutator in (
            lambda t: t.children[0].append("tail"),
            lambda t: t.children[0].set("{urn:x}a", "v"),
            lambda t: t.children.insert(1, element("{urn:x}ins")),
            lambda t: setattr(t, "children", [element("{urn:x}only")]),
            lambda t: t.attributes.update({QName.parse("top"): "1"}),
        ):
            tree = element("{urn:x}root", element("{urn:x}child", "text"), "mid")
            canonicalize(tree)
            mutator(tree)
            assert canonicalize(tree) == ground_truth_c14n(tree)

    def test_aliased_child_mutation_invalidates_both_trees(self):
        shared = element("{urn:x}shared", "payload")
        left = element("{urn:x}left", shared)
        right = element("{urn:x}right", shared)
        canonicalize(left)
        canonicalize(right)
        shared.append("tampered")
        assert canonicalize(left) == ground_truth_c14n(left)
        assert canonicalize(right) == ground_truth_c14n(right)

    def test_sign_after_mutation_matches_uncached_signature(self, identity):
        cert, keypair = identity
        rng = random.Random(90902)
        for _ in range(8):
            body = random_tree(rng)
            sign_element(body, keypair, cert)  # populate the signature cache
            mutate(rng, body)
            cached = canonicalize(sign_element(body, keypair, cert))
            with caching_disabled():
                fresh = canonicalize(sign_element(body.copy(), keypair, cert))
            assert cached == fresh

    def test_stale_signature_fails_verification_after_mutation(self, identity):
        cert, keypair = identity
        body = element("{urn:x}Body", element("{urn:x}value", "7"))
        signature = sign_element(body, keypair, cert)
        verify_element(body, signature, keypair.public)
        body.children[0].append("8")
        with pytest.raises(DsigError):
            verify_element(body, signature, keypair.public)

    def test_signature_cache_returns_private_copies(self, identity):
        """The cache hands every caller the same frozen signature, which is
        as private as a copy: no caller can change what another gets."""
        cert, keypair = identity
        body = element("{urn:x}Body", "x")
        first = sign_element(body, keypair, cert)
        expected = canonicalize(first)
        with pytest.raises(TypeError):
            first.set("tampered", "1")
        with pytest.raises(TypeError):
            first.children[0].append("tampered")
        second = sign_element(body, keypair, cert)
        assert second is first
        assert canonicalize(second) == expected
