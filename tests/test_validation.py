"""``validation.as_matrix``'s guards on outside input: an empty or
one-dimensional input is refused before any entry is converted, and an
array with ``tolist`` is read as its nested lists."""

import pytest

from exactnmf.driver import nn_factor
from exactnmf.errors import DimensionError
from exactnmf.estimator import ExactNMF
from exactnmf.serialize import certificate_to_jsonable

from conftest import H7_SLACK_ROWS


@pytest.mark.parametrize("call", [lambda: nn_factor([]), lambda: ExactNMF().fit([])],
                         ids=["nn_factor", "fit"])
def test_empty_input_refused(call):
    with pytest.raises(DimensionError, match="matrix input is empty"):
        call()


def test_one_dimensional_input_refused():
    with pytest.raises(DimensionError, match="matrix input must be two-dimensional"):
        nn_factor([1, 2, 3])


def test_numpy_array_gives_the_certificate_of_its_lists():
    np = pytest.importorskip("numpy")
    array = np.array(H7_SLACK_ROWS)
    assert array.ndim == 2
    assert (certificate_to_jsonable(nn_factor(array))
            == certificate_to_jsonable(nn_factor(array.tolist())))
