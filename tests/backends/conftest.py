"""``deep`` cases (benchmark-scale differential cells) cost tens of
seconds on the scalar oracle: skipped unless selected with ``-m deep``,
which the CI ``backend-differential`` legs do."""

import pytest


def pytest_collection_modifyitems(config, items):
    if "deep" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="benchmark-scale case: run with -m deep")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(skip)
