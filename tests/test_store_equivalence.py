"""Property test: handle-graph vs store-array equivalence.

Builds a random object graph through the ``HeapObject`` handle API while
maintaining an independent shadow model (plain dicts), applies a random
sequence of mark/promote/forward/age/label operations through the
handles, then checks every observable agrees with the shadow model:

- per-object attributes read back through the handles;
- the flat column views (``size_view`` .. ``epoch_view``);
- the traversal kernels — ``dfs_closure`` must reproduce the legacy
  stack-pop order exactly (the digest-gated GC paths depend on it), and
  ``bfs_closure_csr``/``dfs_reachable`` must agree on the reachable set
  (the order-insensitive path the auditor and bench use);
- ``dfs_closure``'s space ceiling, over mixed spaces and rows already
  marked, against the collectors' legacy loops: filter at pop (Parallel
  Scavenge) and filter at push (G1);
- the batch kernels (``mark_batch``, ``sum_sizes``, ``live_mask``,
  ``age_increment``, ``set_space_batch``) against per-handle loops.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.heap.object_model import (
    SPACE_BY_CODE,
    SPACE_CODES,
    HeapObject,
    SpaceId,
)
from repro.heap.store import (
    NO_SPACE,
    SPACE_FREED,
    SPACE_OLD,
    SPACE_TO,
    HeapStore,
)

SPACES = list(SpaceId)
OP_KINDS = ("mark", "space", "forward", "age", "label", "candidate")


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    adjacency = [
        draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)
    ]
    sizes = [draw(st.integers(16, 4096)) for _ in range(n)]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OP_KINDS),
                st.integers(0, n - 1),
                st.integers(0, 7),
            ),
            max_size=40,
        )
    )
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    epoch = draw(st.integers(1, 5))
    return adjacency, sizes, ops, roots, epoch


def _apply(objs, shadow, op):
    kind, i, arg = op
    if kind == "mark":
        objs[i].mark_epoch = arg
        shadow[i]["mark_epoch"] = arg
    elif kind == "space":
        space = SPACES[arg % len(SPACES)]
        objs[i].space = space
        shadow[i]["space"] = SPACE_CODES[space]
    elif kind == "forward":
        if arg == 0:
            objs[i].forward_space = None
            shadow[i]["fwd_space"] = NO_SPACE
        else:
            space = SPACES[arg % len(SPACES)]
            objs[i].forward_space = space
            shadow[i]["fwd_space"] = SPACE_CODES[space]
    elif kind == "age":
        objs[i].age += 1
        shadow[i]["age"] += 1
    elif kind == "label":
        label = f"l{arg}" if arg else None
        objs[i].label = label
        shadow[i]["label"] = label
    elif kind == "candidate":
        objs[i].h2_candidate = bool(arg % 2)
        shadow[i]["candidate"] = bool(arg % 2)


def _legacy_stack_order(adjacency, roots):
    """The exact pre-refactor traversal: pop, then extend with refs."""
    seen = set()
    order = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        stack.extend(adjacency[node])
    return order, seen


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_handle_graph_matches_store_arrays(scenario):
    adjacency, sizes, ops, roots, epoch = scenario
    store = HeapStore()

    objs = [HeapObject(size, store=store) for size in sizes]
    for i, targets in enumerate(adjacency):
        objs[i].refs = [objs[t] for t in targets]
    shadow = [
        {
            "size": sizes[i],
            "space": SPACE_CODES[SpaceId.EDEN],
            "age": 0,
            "mark_epoch": 0,
            "fwd_space": NO_SPACE,
            "label": None,
            "candidate": False,
        }
        for i in range(len(sizes))
    ]
    for op in ops:
        _apply(objs, shadow, op)

    oids = np.asarray([o.oid for o in objs], dtype=np.int64)

    # Handles are canonical: the store hands back the same object.
    for obj in objs:
        assert store.handle(obj.oid) is obj

    # Per-object attribute reads match the shadow model.
    for obj, model in zip(objs, shadow):
        assert obj.size == model["size"]
        assert obj.space is SPACE_BY_CODE[model["space"]]
        assert obj.age == model["age"]
        assert obj.mark_epoch == model["mark_epoch"]
        expected_fwd = (
            None
            if model["fwd_space"] == NO_SPACE
            else SPACE_BY_CODE[model["fwd_space"]]
        )
        assert obj.forward_space is expected_fwd
        assert obj.label == model["label"]
        assert obj.h2_candidate == model["candidate"]

    # Column views expose the same state in one gather each.
    np.testing.assert_array_equal(
        store.size_view()[oids], [m["size"] for m in shadow]
    )
    np.testing.assert_array_equal(
        store.space_view()[oids], [m["space"] for m in shadow]
    )
    np.testing.assert_array_equal(
        store.age_view()[oids], [m["age"] for m in shadow]
    )
    np.testing.assert_array_equal(
        store.epoch_view()[oids], [m["mark_epoch"] for m in shadow]
    )

    # Edge state round-trips through RefList and the CSR snapshot.
    offsets, csr_targets = store.edge_csr()
    for i, targets in enumerate(adjacency):
        assert [r.oid for r in objs[i].refs] == [
            objs[t].oid for t in targets
        ]
        oid = objs[i].oid
        assert list(csr_targets[offsets[oid]:offsets[oid + 1]]) == [
            objs[t].oid for t in targets
        ]

    # Traversals: dfs_closure reproduces the legacy stack-pop order, and
    # the vectorized BFS (the auditor's reachability kernel) agrees on
    # the set.  Its epoch is above every mark the ops set and its
    # ceiling admits every space, so it walks the whole closure; the
    # batch-kernel checks below overwrite the reachable rows' marks.
    order, reachable = _legacy_stack_order(adjacency, roots)
    root_oids = [objs[r].oid for r in roots]
    assert store.dfs_closure(list(root_oids), 8, SPACE_FREED) == [
        objs[i].oid for i in order
    ]
    for i, obj in enumerate(objs):
        expected = 8 if i in reachable else shadow[i]["mark_epoch"]
        assert obj.mark_epoch == expected
    reachable_oids = sorted(objs[i].oid for i in reachable)
    assert sorted(store.dfs_reachable(root_oids)) == reachable_oids
    np.testing.assert_array_equal(
        store.bfs_closure_csr(root_oids), reachable_oids
    )

    # Batch kernels against per-handle loops.
    live = np.asarray(reachable_oids, dtype=np.int64)
    store.mark_batch(live, epoch)
    for i, obj in enumerate(objs):
        expected = epoch if i in reachable else shadow[i]["mark_epoch"]
        assert obj.mark_epoch == expected
    assert store.sum_sizes(live) == sum(
        sizes[i] for i in reachable
    )
    mask = store.live_mask(oids, epoch)
    for i, obj in enumerate(objs):
        assert mask[i] == (obj.mark_epoch == epoch)

    ages_before = [o.age for o in objs]
    store.age_increment(live)
    for i, obj in enumerate(objs):
        assert obj.age == ages_before[i] + (1 if i in reachable else 0)

    dead = oids[~mask]
    store.set_space_batch(dead, SPACE_CODES[SpaceId.FREED])
    for i, obj in enumerate(objs):
        if not mask[i]:
            assert obj.space is SpaceId.FREED


def _legacy_pop_filter(adjacency, spaces, marks, roots, epoch, ceiling):
    """Parallel Scavenge's loop: push every target, filter at pop."""
    marks = list(marks)
    order = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if marks[node] >= epoch or spaces[node] > ceiling:
            continue
        marks[node] = epoch
        order.append(node)
        stack.extend(adjacency[node])
    return order, marks


def _legacy_push_filter(adjacency, spaces, marks, roots, epoch, ceiling):
    """G1's loop: push only unmarked targets under the ceiling."""
    marks = list(marks)
    order = []
    stack = [r for r in roots if spaces[r] <= ceiling]
    while stack:
        node = stack.pop()
        if marks[node] >= epoch or spaces[node] > ceiling:
            continue
        marks[node] = epoch
        order.append(node)
        for t in adjacency[node]:
            if spaces[t] <= ceiling and marks[t] < epoch:
                stack.append(t)
    return order, marks


@settings(max_examples=60, deadline=None)
@given(
    scenarios(),
    st.lists(st.sampled_from(SPACES), min_size=25, max_size=25),
    st.lists(st.integers(0, 6), min_size=25, max_size=25),
    st.sampled_from([SPACE_TO, SPACE_OLD]),
)
def test_dfs_closure_ceiling_matches_legacy_loops(
    scenario, spaces, marks, ceiling
):
    adjacency, sizes, _, roots, epoch = scenario
    n = len(sizes)
    codes = [SPACE_CODES[space] for space in spaces[:n]]
    marks = marks[:n]
    store = HeapStore()
    objs = [HeapObject(size, store=store) for size in sizes]
    for i, targets in enumerate(adjacency):
        objs[i].refs = [objs[t] for t in targets]
        objs[i].space = spaces[i]
        objs[i].mark_epoch = marks[i]

    expected, expected_marks = _legacy_pop_filter(
        adjacency, codes, marks, roots, epoch, ceiling
    )
    assert _legacy_push_filter(
        adjacency, codes, marks, roots, epoch, ceiling
    ) == (expected, expected_marks)
    order = store.dfs_closure([objs[r].oid for r in roots], epoch, ceiling)
    assert order == [objs[i].oid for i in expected]
    assert [o.mark_epoch for o in objs] == expected_marks
