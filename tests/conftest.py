import pytest

import twophase.operators


@pytest.fixture
def splu_calls(monkeypatch):
    """The list that gets one entry per ``splu`` call of the test."""
    calls = []
    real = twophase.operators.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(twophase.operators, "splu", counting)
    return calls
