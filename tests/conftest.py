"""Every test starts with an empty AP/SAP verdict memo
(`classes._VERDICT_CACHE`), so a test that patches the package's
internals runs the sweep it checks instead of reading another test's
verdict."""

import pytest

from genstruct import classes


@pytest.fixture(autouse=True)
def empty_verdict_memo():
    classes._VERDICT_CACHE.clear()
