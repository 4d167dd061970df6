"""Every row of the forgery table, run through ``cli.main`` in process."""

import pytest

import forgeries


@pytest.mark.parametrize("row", forgeries.ROWS, ids=[row.name for row in forgeries.ROWS])
def test_row(row, tmp_path):
    assert forgeries.run_row(row, forgeries.in_process, tmp_path) == []
