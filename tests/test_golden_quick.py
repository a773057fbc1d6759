"""The quick suite reproduces the pinned corpus byte for byte.

``tests/data/golden_quick.json`` pins every record (and the campaign
manifests) of the quick-scale suite; see ``tests/golden.py`` for what
it holds and how to re-pin it.
"""

import json

import golden


def test_quick_suite_matches_golden_corpus(quick_suite):
    with open(golden.PIN) as fh:
        pinned = fh.read()
    built = golden.corpus(quick_suite)
    if golden.canonical(built) != pinned:
        path = golden.first_difference(json.loads(pinned), built)
        raise AssertionError(
            f"quick suite departs from {golden.PIN} at {path}; re-pin "
            "with `PYTHONPATH=src python tests/golden.py` only if the "
            "change is meant to move it"
        )


def test_quick_suite_has_no_failures(quick_suite):
    for name, result in quick_suite.items():
        assert result.n_failures == 0, (name, result.failures)


def test_first_difference_names_the_path():
    expected = {"a": [1, {"b": 2.0}], "c": "x"}
    assert golden.first_difference(expected, expected) is None
    assert golden.first_difference(
        expected, {"a": [1, {"b": 2.5}], "c": "x"}
    ) == "$.a[1].b"
    assert golden.first_difference(
        expected, {"a": [1], "c": "x"}
    ) == "$.a[1]"
    assert golden.first_difference(expected, {"a": [1, {"b": 2.0}]}) == "$.c"
