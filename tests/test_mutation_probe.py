"""The mutation probe's list stays in step with the source: each
mutant's old text occurs once in its file, and each test named as the
one that catches a mutant exists.  A refactor that moves a mutant's
text fails here at once, not at the next probe run."""

from mutation_probe import CAUGHT, MUTANTS, ROOT


def _read(path):
    return (ROOT / path).read_text(encoding="utf-8")


def test_each_mutant_text_occurs_once():
    counts = {name: _read(file).count(old)
              for name, file, old, *_ in MUTANTS}
    assert len(counts) == len(MUTANTS)  # names are unique
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_each_catching_test_exists():
    missing = []
    for name, _, _, _, expected, note in MUTANTS:
        if expected == CAUGHT:
            path, _, test = note.partition("::")
            if f"\ndef {test}(" not in _read(path):
                missing.append(name)
    assert missing == []
