"""The committed corpus is exactly what tests/make_corpus.py generates."""

from pathlib import Path

import make_corpus


def test_corpus_is_reproducible(tmp_path, monkeypatch):
    monkeypatch.setattr(make_corpus, "CORPUS", tmp_path)
    make_corpus.main()
    committed = Path(__file__).parent / "corpus"
    expected = {p.name: p.read_bytes() for p in committed.glob("*.p")}
    generated = {p.name: p.read_bytes() for p in tmp_path.glob("*.p")}
    assert len(expected) == 57
    assert generated == expected
