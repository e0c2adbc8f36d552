"""A cheap subset of the outputs keeps the bits committed in ``GOLDEN.json`` (``tools/golden.py``)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import golden  # noqa: E402


def test_outputs_match_the_committed_digests():
    want = json.loads(golden.GOLDEN.read_text())
    if golden.build() != {k: want[k] for k in ("numpy", "numpy_build")}:
        pytest.fail(
            f"GOLDEN.json was made on another numpy build (numpy {want['numpy']} there, "
            f"{golden.build()['numpy']} here, or another BLAS/LAPACK); regenerate it with "
            f"`{golden.REGENERATE}` on the commit before the change under test, then run this test again"
        )
    got = golden.golden()
    # The subset reaches the replay of a quiet-step convergence.
    assert got["quiet_convergences"]["fig-h1"] and got["quiet_convergences"]["sweep"]
    assert golden.differences(want, got) == [], (
        f"outputs moved; a change that moves bits on purpose regenerates with `{golden.REGENERATE}`"
    )


def test_the_full_block_was_made_on_the_same_build():
    # The full set takes minutes, so it runs outside the tests (its
    # regenerate command); here only its block's build is checked.
    want = json.loads(golden.GOLDEN.read_text())
    full = want["full"]
    assert full["command"] == golden.REGENERATE_FULL and full["digests"]
    assert {k: full[k] for k in ("numpy", "numpy_build")} == {k: want[k] for k in ("numpy", "numpy_build")}


def test_differences_names_added_removed_and_moved_digests():
    old = {"digests": {"a.csv": "1", "b.csv": "2", "c.csv": "3"}, "quiet_convergences": {"sweep": [7]}}
    new = {"digests": {"a.csv": "1", "c.csv": "4", "d.csv": "5"}, "quiet_convergences": {"sweep": [7]}}
    assert golden.differences(old, old) == []
    assert golden.differences(old, new) == ["digest of b.csv removed", "digest of c.csv moved", "digest of d.csv added"]
    steps = {**new, "quiet_convergences": {"sweep": [9]}}
    assert golden.differences(new, steps) == ["quiet-step convergences {'sweep': [7]} -> {'sweep': [9]}"]
