"""The CLI reproduces the golden corpus byte for byte (see golden.py)."""

import golden


def test_cli_matches_golden_corpus():
    diffs = golden.mismatches(golden.load(), golden.run_all())
    assert not diffs, f"{len(diffs)} golden entries differ:\n" + "\n".join(diffs[:5])


def test_golden_corpus_covers_every_subcommand():
    from graphck.cli import _COMMANDS

    assert {e["argv"][0] for e in golden.load()} == set(_COMMANDS)
