"""The console script's corpus outputs and the families' printed
translations, byte for byte against ``tests/corpus/golden_outputs.json``
(written by ``tests/make_golden.py``)."""

import json

from make_golden import GOLDEN, golden_outputs


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, path + (k,))
    else:
        yield path, tree


def test_outputs_match_the_golden_file():
    want = dict(_leaves(json.loads(GOLDEN.read_text(encoding="utf-8"))))
    got = dict(_leaves(golden_outputs()))
    assert got.keys() == want.keys()
    assert [" / ".join(map(str, k)) for k in want if got[k] != want[k]] == []
