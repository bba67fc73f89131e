"""The CLI's JSON writer against ``json.dumps(sort_keys=True, indent=2)``.

``skos.cli._emit_json`` writes records itself, since ``json.dumps`` with
``indent`` runs the pure-Python encoder.  Its contract is byte equality
with ``json.dumps(value, sort_keys=True, indent=2) + "\\n"``.
"""

import collections
import enum
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from skos.berezinian import random_invertible_supermatrix
from skos.cli import _emit_json, run


def emitted(value) -> str:
    out = io.StringIO()
    _emit_json(value, out)
    return out.getvalue()


def dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


text = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝄞'))
scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
    | st.floats(allow_nan=True, allow_infinity=True) | text
)
int_rows = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.lists(st.integers(-10**30, 10**30) | st.booleans(), min_size=w, max_size=w)
                       | st.tuples(*[st.integers()] * w), max_size=6))
json_like = st.recursive(
    scalars | int_rows,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=5)
        | st.lists(text, max_size=5)
        | st.dictionaries(text, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_like)
def test_writer_equals_json_dumps(value):
    assert emitted(value) == dumped(value)


class Color(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -0.0, 10**100, -(10**100), [[]], [[], []], [[1], [2, 3]], [(1, 2), [3, 4]],
    [[1, 2], [True, 3]], {"a": {"b": [{"c": []}]}}, [Color.RED, 2], {"k": Color.RED}, [Tag("x"), "y"],
    {Tag("b"): 1, "a": 2}, collections.OrderedDict([("b", 1), ("a", [1, 2])]), {2: "x", 10: "y"},
    [float("inf"), float("-inf"), float("nan")], [" ", "\ud800", "q\"uote\\"],
])
def test_writer_equals_json_dumps_on_edge_values(value):
    assert emitted(value) == dumped(value)


def _ber_input(tmp_path) -> str:
    path = tmp_path / "m.json"
    path.write_text(json.dumps(random_invertible_supermatrix(random.Random(3), 2, 2, 3).to_record()))
    return str(path)


COMMANDS = {
    "koszul": ["koszul", "--rank", "2,2", "--weight", "3"],
    "derham": ["derham", "--rank", "2,1", "--weight", "3"],
    "berezinian-complex": ["berezinian-complex", "--rank", "1,2", "--weight", "2"],
    "specialize": ["specialize", "--rank", "3,1", "--omega=2,-1,0,0"],
    "homology": ["homology", "--kind", "specialize", "--rank", "3,0", "--omega", "2,4,6", "--base", "Z"],
    "ber": ["ber", "--input", None],
    "bott": ["bott", "--m", "1", "--n", "1", "--p", "0", "--p-max", "2", "--r", "-1", "--r-max", "1"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_json_output_is_canonical(name, tmp_path, monkeypatch):
    """Each JSON output kind is the canonical text of its own record, and
    no container of it goes to ``json.dumps`` (only scalar leaves)."""
    argv = [_ber_input(tmp_path) if a is None else a for a in COMMANDS[name]] + ["--output", "json"]
    handed = []
    real_dumps = json.dumps

    def spy(value, *args, **kwargs):
        handed.append(value)
        return real_dumps(value, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as m:
        m.setattr(json, "dumps", spy)
        code = run(argv, out, err)
    assert code == 0, err.getvalue()
    text = out.getvalue()
    assert text == dumped(json.loads(text))
    assert not [v for v in handed if isinstance(v, (dict, list, tuple))]
