"""The identity suite itself: green on a fresh tree, red under mutation."""

import numpy as np
import pytest

import hilfer_dfc.operators as operators
import hilfer_dfc.verification as verification
from hilfer_dfc import GridFn
from hilfer_dfc.verification import available_checks, run_checks


class TestSuite:
    def test_all_checks_pass(self):
        results = run_checks()
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_subset_selection(self):
        results = run_checks("laplace")
        assert len(results) == 3
        assert all("laplace" in r.name for r in results)

    def test_unknown_subset_raises(self):
        with pytest.raises(ValueError):
            run_checks("no-such-check")

    def test_custom_y(self):
        results = run_checks("laplace", y=3.0)
        assert all(r.passed for r in results)

    def test_tol_override_can_force_failure(self):
        results = run_checks("power-rule", tol_override=1e-30)
        assert not any(r.passed for r in results)

    def test_registry_is_stable(self):
        names = available_checks()
        assert "power-rule" in names
        assert "solver-cross-validation" in names
        assert len(names) == len(set(names))

    def test_results_are_deterministic(self):
        a = run_checks("composition")
        b = run_checks("composition")
        assert [(r.name, r.max_error) for r in a] == [
            (r.name, r.max_error) for r in b
        ]


class TestMutationSanity:
    def test_kernel_off_by_one_breaks_composition_checks(self, monkeypatch):
        # shift every kernel weight by one lag: the composition identities
        # must detect the corruption
        true_kernel = operators.sum_kernel

        def skewed(mu, length):
            w = true_kernel(mu, length + 1)
            return w[1:]

        monkeypatch.setattr(operators, "sum_kernel", skewed)
        results = run_checks("composition")
        assert any(not r.passed for r in results)

    def test_kernel_off_by_one_breaks_power_rule(self, monkeypatch):
        true_kernel = operators.sum_kernel

        def skewed(mu, length):
            w = true_kernel(mu, length + 1)
            return w[1:]

        monkeypatch.setattr(operators, "sum_kernel", skewed)
        results = run_checks("power-rule")
        assert not results[0].passed

    def test_nan_in_an_operator_fails_the_checks_that_read_it(self, monkeypatch):
        # a nan error used to fold away as max(worst, nan) == worst
        true_difference = verification.hilfer_difference_fn

        def one_nan(f, order):
            diff = true_difference(f, order)
            out = np.array(diff.values)
            out[3] = np.nan
            return GridFn(diff.grid, out)

        monkeypatch.setattr(verification, "hilfer_difference_fn", one_nan)
        for name in ("composition", "left-inverse", "endpoint-reduction"):
            results = run_checks(name)
            assert not any(r.passed for r in results), name
