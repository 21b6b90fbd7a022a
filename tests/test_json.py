"""The JSON writer against the standard library: `_json_text` writes the bytes of `json.dumps(indent=2)`."""

import json
import math

import numpy as np
import pytest

import pivotgrasp.cli as cli
from pivotgrasp.stability import _fmt, _json_text


def reference(doc) -> str:
    """What `_json_text` wrote before it became one walk: a rounded copy through `json.dumps`."""

    def rounded(v):
        if isinstance(v, (float, np.floating)):
            return float(_fmt(v))
        if isinstance(v, dict):
            return {key: rounded(item) for key, item in v.items()}
        if isinstance(v, (list, tuple)):
            return [rounded(item) for item in v]
        return v

    return json.dumps(rounded(doc), indent=2) + "\n"


BOUND = ["beta-ub", "--object", "bushing", "--mu", "0,0,0.4"]
# Every kind of JSON document the CLI writes, with the exit code of its call.
CALLS = [
    (["region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.7", "--alpha-step", "10",
      "--beta-step", "10", "--out-dir", "{d}"], 0),
    (["simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--alpha", "18deg", "--la-schedule",
      "0.9:0.65", "--beta-step", "5", "--la-step", "0.1", "--out-dir", "{d}"], 0),
    (BOUND + ["--la", "0.3", "--alpha", "61deg"], 0),  # "none"
    (BOUND + ["--la", "0.9", "--alpha", "18deg", "--out", "{d}/one.json"], 0),
    (BOUND + ["--la", "0.4", "--alpha", "60deg", "--delta", "7.2"], 0),  # two transitions
    (BOUND + ["--la", "0.4", "--alpha", "10deg"], 4),
    (["traj", "--object", "bushing", "--la", "0.4", "--alpha", "10deg", "--mu", "0,0,0.4",
      "--clamp-beta-ub", "--out", "{d}/never.json"], 4),
    (["traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg", "--mu", "0,0,0.4",
      "--clamp-beta-ub", "--out", "{d}/plan.json", "--align-out", "{d}/align.json"], 0),
]


def test_every_document_the_cli_writes(tmp_path, monkeypatch, capsys):
    docs = []

    def recording(doc):
        docs.append(doc)
        return _json_text(doc)

    monkeypatch.setattr(cli, "_json_text", recording)
    for argv, code in CALLS:
        assert cli.main([a.format(d=tmp_path) for a in argv]) == code
    kinds = [tuple(doc) for doc in docs]
    assert kinds == [
        ("object", "friction", "l_a", "delta_mm", "mode", "alpha_grid", "beta_grid", "feasible_cells"),
        ("object", "friction", "alpha_rad", "delta_mm", "mode", "la_grid", "beta_grid"),
        ("beta_ub_rad",), ("beta_ub_rad",), ("beta_ub_rad", "transitions_rad"), ("error",), ("error",),
        ("p_c", "r", "theta_rad", "waypoints"), ("waypoints",),
    ]
    assert docs[2] == {"beta_ub_rad": "none"} and len(docs[4]["transitions_rad"]) == 2
    for doc in docs:
        assert _json_text(doc) == reference(doc)


VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-5, 1e-4, 123456789.0, 1e9, 5e-324, -1.5, 1 / 3,
    np.float64(0.1), np.float64(-2.5e-7), np.float64(-0.0), np.float32(0.1), np.float32(3.4e38), np.float32(math.nan),
    0, -7, 2**70, True, False, None, "", "plain", "non-ASCII: é ☃ 😀", 'quote " backslash \\ newline \n',
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_a_value_alone_and_inside_containers(value):
    for doc in (value, [value], (value, value), {"key": value}, {"é": [value, {"k": (value,)}]}):
        assert _json_text(doc) == reference(doc)


def test_empty_and_nested_containers():
    for doc in ([], {}, (), [[]], [{}], {"a": {}}, {"a": [], "b": ()}, [[[1.5, []], {}], {"b": [{}, [2]]}]):
        assert _json_text(doc) == reference(doc)


@pytest.mark.parametrize("dtype", [float, np.float32])
def test_seeded_random_floats(dtype):
    # Magnitudes log-uniform over 1e-12 to 1e14, both signs: every float
    # format `_fmt` can take, fixed and exponent, on both sides of 1e-4 and 1e9.
    rng = np.random.default_rng(20)
    n = 100_000 if dtype is float else 10_000
    values = 10.0 ** rng.uniform(-12, 14, n) * rng.choice([-1.0, 1.0], n)
    values = values.tolist() if dtype is float else list(values.astype(np.float32))
    mine, want = _json_text(values), reference(values)
    bad = [v for v, a, b in zip(values, mine.splitlines()[1:], want.splitlines()[1:]) if a != b]
    assert bad == [] and mine == want
