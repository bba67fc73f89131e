from collections import OrderedDict

import pytest

import skos.exact_linalg


@pytest.fixture
def cold_table(monkeypatch):
    """An empty table of named memos for one test, so no build made by an
    earlier test has reduced its differentials; the table comes back after."""
    monkeypatch.setattr(skos.exact_linalg, "_named", OrderedDict())
