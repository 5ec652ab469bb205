import json
import warnings
from pathlib import Path

import pytest

# When a property fails, hypothesis's pytest plugin imports its patch writer,
# whose libcst import raises a DeprecationWarning from mypy_extensions; under
# filterwarnings = error that ends the session with an INTERNALERROR before
# the remaining tests run.  Importing it once here, with that warning
# silenced for this import only, leaves the plugin a loaded module.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from powerparts import family
from powerparts.bigcount import PartitionKind, count_partitions

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def thresholds():
    with open(FIXTURE_DIR / "thresholds.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def axis_passes(monkeypatch):
    """The orders of each real-axis pass made during the test, one entry per
    term of the kind (two for the distinct kind)."""
    passes = []
    axis = family._axis

    def counted(k, s, orders):
        passes.append([m for m, _ in orders])
        return axis(k, s, orders)

    monkeypatch.setattr(family, "_axis", counted)
    return passes


@pytest.fixture(scope="session")
def tables_2000():
    """DP tables for both kinds, k = 1..3, n_max = 2000 (shared, immutable)."""
    return {(kind, k): count_partitions(kind, k, 2000)
            for kind in PartitionKind for k in (1, 2, 3)}
