"""Every command's output is byte-identical to the digests in tests/golden.json
(see golden_outputs.py for the sets and the command that regenerates them)."""

import json

import pytest

from golden_outputs import GOLDEN, SETS, first_difference

GOLDEN_DIGESTS = json.loads(GOLDEN.read_text())


def test_golden_file_holds_every_set():
    assert list(GOLDEN_DIGESTS) == list(SETS)


@pytest.mark.parametrize("name", SETS)
def test_outputs_match_the_golden_digests(name):
    assert first_difference(name, GOLDEN_DIGESTS[name]) is None
