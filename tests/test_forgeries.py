"""Every row of the forgery table, run through ``cli.main`` in process."""

import json

import pytest

import forgeries
from lumigather.checker import validate_trace
from lumigather.engine import Trace


@pytest.mark.parametrize("row", forgeries.ROWS, ids=[row.name for row in forgeries.ROWS])
def test_row(row, tmp_path):
    assert forgeries.run_row(row, forgeries.in_process, tmp_path) == []


def test_replay_lists_each_snapshot_outside_the_domain_once():
    # line-lu with its first move lifted off the line: replay meets many of
    # the snapshots lu-gather has no action on twice, at a Look and again at
    # its round's start, and some at two co-located robots of one light
    row = next(r for r in forgeries.ROWS if r.name == "lifted-move")
    violations = validate_trace(Trace.parse(forgeries.forged_text(row))).violations
    assert len(violations) == 146
    assert len({json.dumps(v, sort_keys=True) for v in violations}) == 146
