"""Checkpoint wire format: a JSON manifest tree plus one ``.npz`` payload.

State trees produced by the systems' ``state_dict`` methods are nested
Python structures mixing JSON-safe scalars (ints, floats, strings, lists,
dicts) with NumPy arrays.  :func:`flatten_state` splits such a tree into

* a JSON-serializable twin in which every array is replaced by a
  placeholder, and
* a flat payload mapping destined for ``numpy.savez`` (uncompressed: the
  arrays are mostly dense floats, which deflate barely shrinks but makes
  many times slower to write and read).

A placeholder ``{"__array__": <key>}`` stands for the whole payload array
``<key>``, the ``/``-joined path of the array inside the tree (e.g.
``"state/server/model/node_embedding"``), so the payload file stays
human-inspectable.

Per-client state repeats one layout once per client (every PTF client
holds its own model and Adam moments), so a mapping whose children are
all mappings is stored column-wise: each leaf path that two or more
children share with equal shape and dtype becomes one stacked
``(children, ...)`` member named ``<mapping path>/*/<leaf path>``, and
each child's placeholder ``{"__array__": <key>, "row": <i>}`` points at
its row.  Leaves that match no sibling stay per-array members.  In the
payload a stacked member is the list of its rows: ``numpy.savez`` stacks
each list as it writes that member, so a save holds one stacked member
at a time beside the state instead of a second copy of all of it.
:func:`unflatten_state` is the exact inverse, and it reads placeholders
without a ``row`` (every pre-stacking checkpoint) unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Dict, List, Tuple, Union

# repro: disable=backend-purity -- npz (de)serialization of checkpoint array payloads
import numpy as np

#: Placeholder key marking "this JSON object stands for an npz array".
ARRAY_PLACEHOLDER = "__array__"
#: Placeholder key giving the row of a stacked member that holds the array.
ARRAY_ROW = "row"
#: Path segment standing for "every child" in a stacked member's key.
STACK_WILDCARD = "*"

#: One array leaf while flattening: full path, its placeholder, the array.
_Leaf = Tuple[str, Dict[str, Any], np.ndarray]
#: Payload member: an array, or the rows of a stacked member.
Payload = Dict[str, Union[np.ndarray, List[np.ndarray]]]


def flatten_state(tree: Any) -> Tuple[Any, Payload]:
    """Split a state tree into a JSON-safe twin and its array payload."""
    leaves: List[_Leaf] = []
    #: Mappings whose children are all mappings, in pre-order, each with
    #: the span of ``leaves`` below every child: the stacking candidates.
    sibling_groups: List[Tuple[str, List[Tuple[str, int, int]]]] = []

    def walk(node: Any, path: str) -> Any:
        if isinstance(node, np.ndarray):
            placeholder = {ARRAY_PLACEHOLDER: path}
            leaves.append((path, placeholder, node))
            return placeholder
        if isinstance(node, np.generic):
            return node.item()
        if isinstance(node, Mapping):
            spans = None
            if len(node) >= 2 and all(isinstance(value, Mapping) for value in node.values()):
                spans = []
                sibling_groups.append((path, spans))
            converted = {}
            for key, value in node.items():
                key = str(key)
                if ARRAY_PLACEHOLDER in key or "/" in key or key == STACK_WILDCARD:
                    raise ValueError(f"state key {key!r} would collide with the wire format")
                if key in converted:
                    raise ValueError(f"duplicate state key {key!r} at {path!r}")
                child = f"{path}/{key}" if path else key
                start = len(leaves)
                converted[key] = walk(value, child)
                if spans is not None:
                    spans.append((child, start, len(leaves)))
            return converted
        if isinstance(node, (list, tuple)):
            return [walk(value, f"{path}/{index}") for index, value in enumerate(node)]
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        raise TypeError(
            f"state value at {path!r} has unsupported type {type(node).__name__}"
        )

    twin = walk(tree, "")
    # ``walk`` refers to itself through its closure cell; unbinding it
    # breaks that cycle, so ``leaves`` (every array of the state) is freed
    # on return rather than whenever the cyclic collector next runs.
    del walk
    arrays: Payload = {}
    # Outermost mappings first: the per-client level claims a leaf before
    # a mapping-of-mappings inside one client (Adam's moment dicts) can.
    for path, spans in sibling_groups:
        _stack_siblings(path, spans, leaves, arrays)
    for leaf_path, placeholder, array in leaves:
        if len(placeholder) == 1:  # not claimed by a stacked member
            arrays[leaf_path] = array
    return twin, arrays


def _stack_siblings(
    path: str,
    spans: List[Tuple[str, int, int]],
    leaves: List[_Leaf],
    arrays: Payload,
) -> None:
    """Stack the unclaimed leaves that sibling subtrees share into members.

    For each leaf path relative to its child, the largest set of >= 2
    children holding it with one shape and dtype becomes a stacked member
    (ties go to the set seen first); every other leaf is left unclaimed.
    """
    by_relative: Dict[str, List[_Leaf]] = {}
    for child, start, stop in spans:
        offset = len(child) + 1
        for leaf in leaves[start:stop]:
            if len(leaf[1]) == 1:
                by_relative.setdefault(leaf[0][offset:], []).append(leaf)
    prefix = f"{path}/{STACK_WILDCARD}" if path else STACK_WILDCARD
    for relative, candidates in by_relative.items():
        if len(candidates) < 2:
            continue
        groups: Dict[tuple, List[_Leaf]] = {}
        for leaf in candidates:
            groups.setdefault((leaf[2].shape, leaf[2].dtype), []).append(leaf)
        group = max(groups.values(), key=len)
        if len(group) < 2:
            continue
        member = f"{prefix}/{relative}"
        arrays[member] = [leaf[2] for leaf in group]
        for row, (_, placeholder, _) in enumerate(group):
            placeholder[ARRAY_PLACEHOLDER] = member
            placeholder[ARRAY_ROW] = row


def unflatten_state(tree: Any, arrays: Mapping[str, Any]) -> Any:
    """Rebuild the original state tree from :func:`flatten_state` output
    (or from the ``.npz`` it was written to).

    A row of a stacked member comes back as its own array (a copy), so no
    two restored leaves share memory: optimizers update their moments in
    place.
    """

    def walk(node: Any) -> Any:
        if isinstance(node, Mapping):
            if ARRAY_PLACEHOLDER in node:
                key = node[ARRAY_PLACEHOLDER]
                if key not in arrays:
                    raise KeyError(f"checkpoint payload is missing array {key!r}")
                if ARRAY_ROW not in node:
                    return np.asarray(arrays[key])
                stacked = arrays[key]
                row = node[ARRAY_ROW]
                if not 0 <= row < len(stacked):
                    raise KeyError(f"checkpoint array {key!r} has no row {row}")
                return np.array(stacked[row])
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, Sequence) and not isinstance(node, str):
            return [walk(value) for value in node]
        return node

    restored = walk(tree)
    del walk  # break walk's self-reference: ``arrays`` is freed on return
    return restored
