"""The Fourier-Motzkin oracle of the Newton-face and weight tests, on its own."""

from fourier_motzkin import feasible_point


def test_feasible_point_strict():
    # x > 0, y > 0, x + y <= 1  (as -x - y >= -1)
    w = feasible_point(
        [((1, 0), 0, True), ((0, 1), 0, True), ((-1, -1), -1, False)], 2
    )
    assert w is not None and w[0] > 0 and w[1] > 0 and w[0] + w[1] <= 1
    # x > 0 and x < 0 infeasible
    assert feasible_point([((1,), 0, True), ((-1,), 0, True)], 1) is None


def test_feasible_point_equality_pair():
    # x = y, x > 1
    w = feasible_point(
        [((1, -1), 0, False), ((-1, 1), 0, False), ((1, 0), 1, True)], 2
    )
    assert w is not None and w[0] == w[1] and w[0] > 1
