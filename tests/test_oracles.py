import numpy as np

from oracles import GradCheckReport, grad_check


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_exact():
    a = np.array([2.0, -3.0, 0.5])
    x = np.array([0.7, 1.3, -2.1])
    params = {"x": x}

    def loss_and_grads():
        return float((a * x * x).sum()), {"x": 2 * a * x}

    report = grad_check(loss_and_grads, params, n_per_tensor=3, seed=0)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_grad_check_detects_corruption():
    x = np.array([0.7, 1.3, -2.1])
    params = {"x": x}

    def loss_and_bad_grads():
        return float((x * x).sum()), {"x": 2 * x + 0.5}  # deliberately wrong

    report = grad_check(loss_and_bad_grads, params, n_per_tensor=3, seed=0)
    assert not report.passed


def test_grad_check_report_str():
    rep = GradCheckReport(passed=True, max_rel_err=1e-9, n_checked=3, tolerance=1e-4,
                          worst=("x", 0, 1.0, 1.0))
    assert "pass" in str(rep)
