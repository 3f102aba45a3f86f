import pytest

from singlib import milnor_basis, parse_poly


@pytest.fixture(scope="session")
def h():
    return parse_poly("x^14+y^14-x^6*y^6", ["x", "y"])


@pytest.fixture(scope="session")
def g():
    return parse_poly("x^14+y^14-x^6*y^6+z^5", ["x", "y", "z"])


@pytest.fixture(scope="session")
def basis_h(h):
    return milnor_basis(h)


@pytest.fixture(params=[
    # numbers where exact strings belong, and floats or bools where ints belong
    '{"dim": 1, "N": [0], "G": [{"level": 0, "spanning_vectors": [["1"]]}]}',
    '{"dim": 1e400, "N": ["0"], "G": [{"level": 0, "spanning_vectors": [["1"]]}]}',
    '{"dim": 1, "N": ["0"], "G": [{"level": 0.7, "spanning_vectors": [["1"]]}]}',
    '{"dim": 1, "N": ["0"], "G": [{"level": 1.9, "spanning_vectors": [["1"]]}]}',
    '{"dim": true, "N": ["0"], "G": [{"level": 0, "spanning_vectors": [["1"]]}]}',
    '{"dim": 1, "N": ["0"], "G": [{"level": false, "spanning_vectors": [["1"]]}]}',
    '{"dim": 1, "N": ["0"], "G": [{"level": 0, "spanning_vectors": [[1]]}]}',
    '{"dim": 1, "N": "0", "G": [{"level": 0, "spanning_vectors": [["1"]]}]}',
])
def malformed_fnm(request):
    """FNM JSON with a wrong JSON type in one field; the module is valid otherwise."""
    return request.param
