import pytest

from goldgen import permgen, solvers, verify


class Stop(BaseException):
    """Ends a suite that would otherwise keep looping."""


def raise_once_then_stop(error):
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise error
        raise Stop

    return fake


class TestSuitesCatchOnlyNumericalFailures:
    def test_radical_family_propagates_programming_errors(self, monkeypatch):
        monkeypatch.setattr(permgen, "generation_tree",
                            raise_once_then_stop(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            verify.suite_radical_family()

    def test_isochrony_propagates_programming_errors(self, monkeypatch):
        monkeypatch.setattr(solvers, "detect_period",
                            raise_once_then_stop(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            verify.suite_isochrony()
