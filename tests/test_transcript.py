"""The closed transcript schema: ``EVENTS``, what ``Transcript.add`` refuses, and the README's copy."""

import json
import re

import numpy as np
import pytest

from sqpbs.transcript import EVENTS, Transcript
from test_golden import CONFIGS, GOLDEN_FILE, ROOT, canonical_transcript

NOTICE = {"sender": "david", "receiver": "bob", "label": "signing-approval-request"}


def test_every_pinned_event_matches_the_schema():
    records = [canonical_transcript(name) for name in sorted(CONFIGS)]
    records.append(json.loads(GOLDEN_FILE.read_text())["transcript"])
    seen = set()
    for record in records:
        for event in record["events"]:
            event_type, shape = event["type"], frozenset(event) - {"type"}
            assert shape in EVENTS[event_type], event
            seen.add((event_type, shape))
    # The pinned runs reach every type and every shape of the table.
    assert seen == {(event_type, shape) for event_type, shapes in EVENTS.items() for shape in shapes}
    assert (len(EVENTS), len(seen)) == (14, 17)


@pytest.mark.parametrize(
    "event_type, fields",
    [
        ("oops", NOTICE),
        ("notice", {**NOTICE, "by": "david"}),
        ("notice", {"sender": "david", "receiver": "bob"}),
        ("recovery_record", {"party": "trent", "g_prime": "0110", "fidelities": [1.0, 1.0, 1.0, 1.0]}),
    ],
    ids=["unknown-type", "extra-field", "missing-field", "recovery-fidelities"],
)
def test_add_refuses_a_field_set_outside_the_schema(event_type, fields):
    transcript = Transcript(meta={})
    transcript.add("notice", **NOTICE)
    before = list(transcript.events)
    with pytest.raises(TypeError, match="transcript.EVENTS has no"):
        transcript.add(event_type, **fields)
    assert transcript.events == before


@pytest.mark.parametrize("value", [object(), np.bool_(True), {"nested": object()}, [np.bool_(False)], np.float64(0.5)])
def test_add_rejects_unknown_types(value):
    transcript = Transcript(meta={})
    with pytest.raises(TypeError, match="not a JSON scalar"):
        transcript.add("notice", **{**NOTICE, "label": value})
    assert transcript.events == []


def readme_event_table() -> dict[str, tuple[frozenset, ...]]:
    """The README's event table: each type, in its row order, and the field sets of its row, in order."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Event type |"))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        type_cell, shapes_cell = line.strip("|").split("|")
        table[type_cell.strip().strip("`")] = tuple(
            frozenset(shape.split()) for shape in re.findall(r"`([^`]+)`", shapes_cell)
        )
    return table


def test_readme_event_table_is_the_schema():
    table = readme_event_table()
    assert list(table) == list(EVENTS)
    assert table == EVENTS
