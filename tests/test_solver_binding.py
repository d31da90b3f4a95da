"""The LP is solved through the HiGHS binding that scipy bundles as the
private module scipy.optimize._highspy._core. It is not public API, so
this pins what cgrlab uses of it to the scipy floor in pyproject.toml."""

import re
from pathlib import Path

import numpy as np
import pytest
import scipy

SCIPY_FLOOR = "1.15"


def test_scipy_floor_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'"scipy>=([0-9.]+)"', text).group(1) == SCIPY_FLOOR


def test_scipy_bundles_the_highs_binding():
    try:
        from scipy.optimize._highspy._core import (  # noqa: F401
            HighsModelStatus,
            HighsStatus,
            MatrixFormat,
            ObjSense,
            _Highs,
            kHighsInf,
            simplex_constants,
        )
    except ImportError as e:
        pytest.fail(
            f"cgrlab needs scipy>={SCIPY_FLOOR}, whose scipy.optimize._highspy._core "
            f"binds HiGHS; scipy {scipy.__version__} is installed and the import failed: {e}"
        )
    used = ("passModel", "changeRowBounds", "changeColBounds", "setOptionValue", "run",
            "getModelStatus", "modelStatusToString", "getSolution", "getInfo")
    missing = [name for name in used if not hasattr(_Highs, name)]
    assert not missing, (
        f"scipy {scipy.__version__}'s HiGHS binding lacks {missing}; cgrlab needs scipy>={SCIPY_FLOOR}"
    )


def test_the_array_pass_model_overload_loads_a_model():
    # hasattr cannot see overloads: call the one cgrlab uses, with int32
    # column starts and row indices and a continuous integrality vector.
    # min x0 + 2 x1  s.t.  x0 + x1 >= 3,  x1 >= 1 (a row),  x0 <= 10.
    from scipy.optimize._highspy._core import (
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        ObjSense,
        _Highs,
        kHighsInf,
    )

    solver = _Highs()
    solver.setOptionValue("output_flag", False)
    status = solver.passModel(
        2, 2, 3, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        np.array([1.0, 2.0]), np.zeros(2), np.array([10.0, kHighsInf]),
        np.array([3.0, 1.0]), np.array([kHighsInf, kHighsInf]),
        np.array([0, 1, 3], dtype=np.int32), np.array([0, 0, 1], dtype=np.int32),
        np.array([1.0, 1.0, 1.0]), np.zeros(2, dtype=np.int32),
    )
    assert status == HighsStatus.kOk
    solver.run()
    assert solver.getModelStatus() == HighsModelStatus.kOptimal
    assert solver.getSolution().col_value == pytest.approx([2.0, 1.0])
    assert solver.getInfo().objective_function_value == pytest.approx(4.0)
