import pytest

from goldgen import dynamics, permgen, solvers, verify
from goldgen.cli import main
from goldgen.errors import DegenerateZeros, NonFiniteState, RootSolveFailed


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


class TestSuitesDoNotRedrawOnEngineFailures:
    # an engine failure on a seeded draw ends the suite: redrawing would let
    # a regression pass on other inputs
    def test_radical_family_raises_a_tree_failure(self, monkeypatch):
        monkeypatch.setattr(permgen, "generation_tree",
                            raise_once_then_stop(RootSolveFailed("boom", level=2)))
        with pytest.raises(RootSolveFailed, match="boom"):
            verify.suite_radical_family()

    @pytest.mark.parametrize("module, name", [(dynamics, "integrate"),
                                              (solvers, "solve_iso_goldfish_at")],
                             ids=["integrate", "solve_iso_goldfish_at"])
    def test_goldfish_raises_an_engine_failure(self, monkeypatch, module, name):
        monkeypatch.setattr(module, name, raise_once_then_stop(DegenerateZeros("boom")))
        with pytest.raises(DegenerateZeros, match="boom"):
            verify.suite_goldfish()


class TestCliVerify:
    def test_engine_failure_is_a_failed_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(permgen, "generation_tree",
                            raise_once_then_stop(RootSolveFailed("boom", level=2)))
        assert main(["verify", "radical-family"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] radical-family: RootSolveFailed (level 2): boom\n")

    def test_the_other_suites_still_run(self, monkeypatch, capsys):
        def passing():
            return [verify.Check("ok", 0.0, 1.0)]

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, passing)
        monkeypatch.setitem(verify.SUITES, "identities",
                            raise_once_then_stop(NonFiniteState("boom")))
        assert main(["verify", "all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "[FAIL] identities: NonFiniteState: boom" in lines
        assert sum(line.startswith("[PASS] ") for line in lines) == len(verify.SUITES) - 1
