"""The LP is solved through the HiGHS binding that scipy bundles as the
private module scipy.optimize._highspy._core. It is not public API, so
this pins what cgrlab uses of it to the scipy floor in pyproject.toml."""

import re
from pathlib import Path

import pytest
import scipy

SCIPY_FLOOR = "1.15"


def test_scipy_floor_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'"scipy>=([0-9.]+)"', text).group(1) == SCIPY_FLOOR


def test_scipy_bundles_the_highs_binding():
    try:
        from scipy.optimize._highspy._core import (  # noqa: F401
            HighsLp,
            HighsModelStatus,
            HighsStatus,
            MatrixFormat,
            _Highs,
            kHighsInf,
            simplex_constants,
        )
    except ImportError as e:
        pytest.fail(
            f"cgrlab needs scipy>={SCIPY_FLOOR}, whose scipy.optimize._highspy._core "
            f"binds HiGHS; scipy {scipy.__version__} is installed and the import failed: {e}"
        )
    used = ("passModel", "changeRowBounds", "setOptionValue", "run", "getModelStatus",
            "modelStatusToString", "getSolution", "getInfo")
    missing = [name for name in used if not hasattr(_Highs, name)]
    assert not missing, (
        f"scipy {scipy.__version__}'s HiGHS binding lacks {missing}; cgrlab needs scipy>={SCIPY_FLOOR}"
    )
