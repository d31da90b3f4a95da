"""The LP is solved through the HiGHS binding that scipy bundles as the
private module scipy.optimize._highspy._core. It is not public API, so
this pins what cgrlab uses of it to the scipy floor in pyproject.toml."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import cgrlab
from cgrlab.contact_plan import parse_contact_plan
from cgrlab.lp_oracle import Commodity, build_lp, problem_to_lp_text

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


# Modules that `import cgrlab` must not load: scipy.optimize's package
# import (about 0.4 s) and what it pulls in, and the process pool, which
# only run_sweep with jobs > 1 needs.
_NOT_AT_IMPORT = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "numpy.f2py",
                  "concurrent.futures.process")

_TINY_PLAN = "plan 2 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 10 4\n"

_FOOTPRINT_SCRIPT = """
import json, math, sys
{first}
import cgrlab.cli
from cgrlab.contact_plan import parse_contact_plan
from cgrlab.lp_oracle import Commodity, build_lp, problem_to_lp_text

report = {{"at_import": [m for m in {heavy!r} if m in sys.modules]}}
problem = build_lp(parse_contact_plan({plan!r}), [Commodity(2, 0.0, math.inf, ((1, 3.0),))])
report["sparse_before_export"] = "scipy.sparse" in sys.modules
report["lp_text"] = problem_to_lp_text(problem)
report["sparse_after_export"] = "scipy.sparse" in sys.modules
from scipy.optimize import linprog
result = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-3], bounds=[(0, None), (1, None)])
report["linprog_x"] = result.x.tolist()
report["same_binding"] = sys.modules["scipy.optimize._highspy._core"] is cgrlab.lp_oracle.highs
print(json.dumps(report))
"""


@pytest.mark.parametrize("first", ["", "import scipy.optimize"])
def test_import_loads_only_what_cgrlab_runs(first):
    # A fresh process each: this process has long loaded scipy.optimize.
    src = str(Path(cgrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = _FOOTPRINT_SCRIPT.format(first=first, heavy=_NOT_AT_IMPORT, plan=_TINY_PLAN)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    if not first:
        assert report["at_import"] == []
        assert report["sparse_before_export"] is False
    assert report["sparse_after_export"] is True
    problem = build_lp(parse_contact_plan(_TINY_PLAN), [Commodity(2, 0.0, math.inf, ((1, 3.0),))])
    assert report["lp_text"] == problem_to_lp_text(problem)
    assert report["linprog_x"] == pytest.approx([2.0, 1.0])
    assert report["same_binding"] is True
