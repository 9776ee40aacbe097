"""Artifact text: the JSON and CSV renderings of numpy values, pinned."""

import numpy as np

from critevo.reporting import dumps_csv, dumps_json, format_cell


def test_numpy_values_render_to_pinned_json():
    doc = {
        "f": np.float64(0.1), "nan": np.float64("nan"), "inf": np.float64("inf"),
        "ninf": np.float64("-inf"), "f32": np.float32(0.1), "i": np.int64(-7),
        "b": np.bool_(True), "c": np.complex128(complex(1.5, -np.inf)),
        "a1": np.array([1.0, np.nan, -np.inf, 2.5e-300]), "a2": np.array([[1, 2], [3, 4]]),
        "ac": np.array([1j, 2 + 0j]),
    }
    assert dumps_json(doc) == (
        '{\n  "f": 0.1,\n  "nan": "nan",\n  "inf": "inf",\n  "ninf": "-inf",\n'
        '  "f32": 0.10000000149011612,\n  "i": -7,\n  "b": true,\n'
        '  "c": {\n    "re": 1.5,\n    "im": "-inf"\n  },\n'
        '  "a1": [\n    1.0,\n    "nan",\n    "-inf",\n    2.5e-300\n  ],\n'
        '  "a2": [\n    [\n      1,\n      2\n    ],\n    [\n      3,\n      4\n    ]\n  ],\n'
        '  "ac": [\n    {\n      "re": 0.0,\n      "im": 1.0\n    },\n'
        '    {\n      "re": 2.0,\n      "im": 0.0\n    }\n  ]\n}\n'
    )


def test_numpy_values_render_to_pinned_csv():
    columns = {
        "x": np.array([0.1, np.nan, np.inf, -np.inf]), "i": np.array([1, 2, 3, -4]),
        "b": np.array([True, False, True, False]), "c": np.array([1 + 2j, 0j, -1.5j, 3]),
        "m": np.array([[1.0, 2.0], [3.0, 4.0]]), "l": [1, 2.5, 3, 4],
    }
    assert dumps_csv(columns) == (
        "x,i,b,c,m,l\n0.1,1,True,(1+2j),1.0,1.0\nnan,2,False,0j,2.0,2.5\n"
        "inf,3,True,(-0-1.5j),3.0,3.0\n-inf,-4,False,(3+0j),4.0,4.0\n"
    )
    cells = (np.float64(1 / 3), np.float32(0.1), np.int64(5), np.bool_(False),
             np.complex128(1 + 2j), np.float64("nan"), float("inf"), -float("inf"), 7, "a")
    assert [format_cell(v) for v in cells] == [
        "0.3333333333333333", "0.10000000149011612", "5", "False", "(1+2j)", "nan",
        "inf", "-inf", "7", "a"]
