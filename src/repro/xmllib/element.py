"""Element tree with mixed content.

An :class:`XmlElement` owns a qualified tag, an attribute map keyed by
:class:`~repro.xmllib.qname.QName`, and an ordered list of children where each
child is either another element or a text string (mixed content).  Keeping
text as ordinary list entries (rather than ElementTree's text/tail split)
makes canonicalization and XPath ``text()`` handling straightforward.

A tree is mutable until it becomes final, then :func:`freeze` makes it
read-only in place (DESIGN.md §16): its children become a tuple and its
attributes a read-only dict, and every mutator raises :class:`TypeError`.
Every descendant of a frozen node is frozen, so a frozen tree's content can
never change.  That is what lets a sent envelope be handed to its receiver
without a copy, and what lets derived values (content keys, namespace
tuples) be memoized on frozen nodes with nothing ever to invalidate.
Mutable nodes hold a plain ``list`` and ``dict`` and memoize nothing; to
edit a frozen tree, edit its :meth:`~XmlElement.copy`.  Tags are fixed at
construction (nothing in the tree may reassign ``node.tag``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from repro.xmllib.qname import QName

Child = "XmlElement | str"

_sort_key = attrgetter("_key")

_FROZEN = "XmlElement is frozen (sent trees are read-only); edit a copy()"


def _refuse(*_args, **_kwargs):
    raise TypeError(_FROZEN)


class _FrozenChildren(tuple):
    """A frozen node's children: a tuple whose list mutators raise TypeError."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = remove = pop = clear = sort = reverse = _refuse


class _FrozenAttributes(dict):
    """A frozen node's attributes: a dict whose mutators raise TypeError."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    pop = popitem = clear = update = setdefault = _refuse


class XmlElement:
    """A namespace-aware XML element node.

    ``_memo`` is None while the node is mutable; :func:`freeze` sets it to
    the dict that holds the node's memoized derived values.
    """

    __slots__ = ("tag", "_attributes", "_children", "_memo")

    def __init__(
        self,
        tag: str | QName,
        attributes: dict[str | QName, str] | None = None,
        children: Iterable["XmlElement | str"] | None = None,
    ) -> None:
        self.tag = QName.parse(tag)
        self._attributes: dict = (
            {QName.parse(key): str(value) for key, value in attributes.items()}
            if attributes
            else {}
        )
        self._children: list = []
        self._memo: dict | None = None
        if children is not None:
            for child in children:
                self.append(child)

    @property
    def frozen(self) -> bool:
        """True once :func:`freeze` has made this subtree read-only."""
        return self._memo is not None

    @property
    def attributes(self) -> dict:
        return self._attributes

    @attributes.setter
    def attributes(self, value: dict) -> None:
        if self._memo is not None:
            _refuse()
        self._attributes = {QName.parse(key): val for key, val in value.items()}

    @property
    def children(self) -> list:
        return self._children

    @children.setter
    def children(self, value: Iterable["XmlElement | str"]) -> None:
        if self._memo is not None:
            _refuse()
        self._children = list(value)

    # -- construction -----------------------------------------------------

    def append(self, child: "XmlElement | str | int | float") -> "XmlElement":
        """Append a child element or text node; returns self for chaining."""
        if isinstance(child, XmlElement):
            self._children.append(child)
        elif isinstance(child, (str, int, float)):
            text = str(child)
            if text:
                self._children.append(text)
        else:
            raise TypeError(f"cannot append {type(child).__name__} to XmlElement")
        return self

    def extend(self, children: Iterable["XmlElement | str"]) -> "XmlElement":
        for child in children:
            self.append(child)
        return self

    def set(self, key: str | QName, value: str) -> "XmlElement":
        self._attributes[QName.parse(key)] = str(value)
        return self

    def get(self, key: str | QName, default: str | None = None) -> str | None:
        return self._attributes.get(QName.parse(key), default)

    # -- navigation -------------------------------------------------------

    def element_children(self) -> Iterator["XmlElement"]:
        """Iterate child elements, skipping text nodes."""
        for child in self._children:
            if isinstance(child, XmlElement):
                yield child

    def find(self, tag: str | QName) -> "XmlElement | None":
        """First child element with the given qualified tag, or None."""
        want = QName.parse(tag)
        for child in self.element_children():
            if child.tag == want:
                return child
        return None

    def find_all(self, tag: str | QName) -> list["XmlElement"]:
        """All child elements with the given qualified tag."""
        want = QName.parse(tag)
        return [c for c in self.element_children() if c.tag == want]

    def find_local(self, local: str) -> "XmlElement | None":
        """First child element matching on local name only (any namespace)."""
        for child in self.element_children():
            if child.tag.local == local:
                return child
        return None

    def descendants(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over all descendant elements (preorder)."""
        stack = [c for c in reversed(self._children) if isinstance(c, XmlElement)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                c for c in reversed(node._children) if isinstance(c, XmlElement)
            )

    def text(self) -> str:
        """Concatenated text content of this element and all descendants."""
        parts: list[str] = []
        stack: list = list(reversed(self._children))
        while stack:
            child = stack.pop()
            if isinstance(child, str):
                parts.append(child)
            else:
                stack.extend(reversed(child._children))
        return "".join(parts)

    # -- structural equality ----------------------------------------------

    def structurally_equal(self, other: "XmlElement") -> bool:
        """Deep equality on tag, attributes and normalized mixed content.

        Adjacent text nodes are coalesced and empty text ignored, so two
        trees that canonicalize identically compare equal.
        """
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine.tag != theirs.tag or mine._attributes != theirs._attributes:
                return False
            a_kids = _normalized_children(mine)
            b_kids = _normalized_children(theirs)
            if len(a_kids) != len(b_kids):
                return False
            for a, b in zip(a_kids, b_kids):
                if isinstance(a, str) or isinstance(b, str):
                    if a != b:
                        return False
                else:
                    stack.append((a, b))
        return True

    def copy(self) -> "XmlElement":
        """Deep mutable copy (aliased subtrees become distinct copies, one per use).

        The copy of a frozen tree is an ordinary mutable tree with no memos.
        """
        clone_root = _blank(self.tag, dict(self._attributes))
        stack = [(self, clone_root)]
        while stack:
            src, dst = stack.pop()
            dst_children = dst._children
            for child in src._children:
                if isinstance(child, str):
                    dst_children.append(child)
                else:
                    child_clone = _blank(child.tag, dict(child._attributes))
                    dst_children.append(child_clone)
                    stack.append((child, child_clone))
        return clone_root

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag.clark()} attrs={len(self._attributes)} children={len(self._children)}>"


def _blank(tag: QName, attributes: dict) -> XmlElement:
    """Fast internal constructor: pre-parsed tag, adopts ``attributes`` as is."""
    node = XmlElement.__new__(XmlElement)
    node.tag = tag
    node._attributes = attributes
    node._children = []
    node._memo = None
    return node


def freeze(node: XmlElement) -> XmlElement:
    """Make ``node``'s subtree read-only in place and return ``node``.

    Iterative, and stops at subtrees that are already frozen, so freezing
    an envelope whose Body was frozen for signing touches only the rest.
    """
    stack = [node]
    while stack:
        el = stack.pop()
        if el._memo is not None:
            continue
        el._memo = {}
        children = el._children = _FrozenChildren(el._children)
        el._attributes = _FrozenAttributes(el._attributes)
        stack.extend([c for c in children if isinstance(c, XmlElement)])
    return node


_CK = "ck"


def content_key(node: XmlElement) -> tuple:
    """A structural key: equal for trees with identical canonical content.

    The key is ``(hash, node_count, text_length)`` computed bottom-up from
    tags, sorted attributes, and child keys/text.  It is memoized on frozen
    nodes only; a mutable node's key is recomputed on every call, so any
    edit shows in the next key.  Equal trees — even freshly parsed,
    distinct objects — get equal keys, which is what lets the c14n/DSig
    caches hit on the receiving side of a round trip.  Attribute *order* is
    deliberately ignored (canonical output sorts attributes); text-node
    splits are not coalesced, which can only split cache entries, never
    conflate distinct content.
    """
    memo = node._memo
    if memo is not None:
        key = memo.get(_CK)
        if key is not None:
            return key
    # Post-order walk.  An element is expanded into a ``(element, start)``
    # finishing entry plus its element children; when the entry pops, its
    # children's keys are ``done[start:]``, in document order.
    done: list[tuple] = []
    stack: list = [node]
    while stack:
        el = stack.pop()
        if el.__class__ is tuple:
            el, start = el
            child_keys = done[start:]
            del done[start:]
            parts: list = [el.tag._key]
            attrs = el._attributes
            if attrs:
                for name in sorted(attrs, key=_sort_key):
                    parts.append(name._key)
                    parts.append(attrs[name])
            node_count = 1
            text_length = 0
            i = 0
            for c in el._children:
                if isinstance(c, str):
                    parts.append(c)
                    text_length += len(c)
                else:
                    child_key = child_keys[i]
                    i += 1
                    parts.append(child_key)
                    node_count += child_key[1]
                    text_length += child_key[2]
            key = (hash(tuple(parts)), node_count, text_length)
            if el._memo is not None:
                el._memo[_CK] = key
            done.append(key)
            continue
        memo = el._memo
        if memo is not None:
            key = memo.get(_CK)
            if key is not None:
                done.append(key)
                continue
        stack.append((el, len(done)))
        stack.extend([c for c in reversed(el._children) if isinstance(c, XmlElement)])
    return done[0]


def _normalized_children(node: XmlElement) -> list["XmlElement | str"]:
    out: list[XmlElement | str] = []
    for child in node.children:
        if isinstance(child, str):
            if not child:
                continue
            if out and isinstance(out[-1], str):
                out[-1] = out[-1] + child
            else:
                out.append(child)
        else:
            out.append(child)
    return out


def element(
    tag: str | QName,
    *children: "XmlElement | str | int | float",
    attrs: dict[str | QName, str] | None = None,
) -> XmlElement:
    """Terse element constructor: ``element(q, child1, "text", attrs={...})``."""
    node = XmlElement(tag, attrs)
    for child in children:
        node.append(child)
    return node


def text_of(node: XmlElement | None, default: str = "") -> str:
    """Stripped text content of ``node``, or ``default`` when node is None."""
    if node is None:
        return default
    return node.text().strip()
