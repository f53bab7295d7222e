"""The committed corpus is exactly what tests/make_corpus.py generates, and
saturates to pinned state files."""

import hashlib
from pathlib import Path

import make_corpus
from satloc import parse_problem, saturate, serialize_state


def test_corpus_is_reproducible(tmp_path, monkeypatch):
    monkeypatch.setattr(make_corpus, "CORPUS", tmp_path)
    make_corpus.main()
    committed = Path(__file__).parent / "corpus"
    expected = {p.name: p.read_bytes() for p in committed.glob("*.p")}
    generated = {p.name: p.read_bytes() for p in tmp_path.glob("*.p")}
    assert len(expected) == 57
    assert generated == expected


# sha256 (first 16 hex digits) of each corpus problem's saturated state.
# Speed-ups must leave these as they are; a change that alters a state must
# show that it still verifies and agrees with the oracle before re-pinning.
STATE_SHA256 = {
    "g_disj_00.p": "ddc69cf0e6c93637",
    "g_disj_01.p": "5d45be2f308341d8",
    "g_disj_02.p": "c0e2a62241c1187a",
    "g_disj_03.p": "78289a147a59e1af",
    "g_disj_04.p": "48d97e2f6e274827",
    "g_disj_05.p": "c9bafcf2734195c4",
    "g_ground_00.p": "b24894a8d5eb4b19",
    "g_ground_01.p": "71b64902d0194945",
    "g_ground_02.p": "e2d4e0b2a0d0d02a",
    "g_ground_03.p": "3ff218dd87421237",
    "g_ground_04.p": "f118de1325170e03",
    "g_ground_05.p": "0b280e143bbe972b",
    "g_ground_06.p": "e1e65d935f587a74",
    "g_ground_07.p": "9c911f9ad289657e",
    "g_ground_08.p": "b3daff1fa6be87ef",
    "g_ground_09.p": "71213c9d16ee3cf8",
    "g_ground_10.p": "fe5af31257e53686",
    "g_ground_11.p": "00fa8ebb2ef54900",
    "g_growth_00.p": "ef90f362f1d22c57",
    "g_growth_01.p": "863fb23261897068",
    "g_growth_02.p": "ccc57628ae34fb1d",
    "g_growth_03.p": "8eea27a4b854368c",
    "g_growth_04.p": "83b966fd76515bbf",
    "g_growth_05.p": "0d23fbdf5848d82f",
    "g_growth_06.p": "e1aac41ae7b7675c",
    "g_growth_07.p": "bd5c9dacb3ee7433",
    "g_horn_00.p": "ec1fd0108d198ea7",
    "g_horn_01.p": "4aa68418a8c7b61e",
    "g_horn_02.p": "ff561707aadc8996",
    "g_horn_03.p": "35a740192e7af661",
    "g_horn_04.p": "b17430457804c281",
    "g_horn_05.p": "9d19c492280f33e6",
    "g_horn_06.p": "99895f5150c4aeb4",
    "g_horn_07.p": "fb4bf1fa28d260b5",
    "g_horn_08.p": "77f366b5c2c33827",
    "g_horn_09.p": "783aee9fac17beac",
    "g_horn_10.p": "9c20ac87e4766761",
    "g_horn_11.p": "d1b266be7e2051e0",
    "g_mixed_00.p": "66a47cab86cdacdf",
    "g_mixed_01.p": "6bea26df0f0bd60a",
    "g_mixed_02.p": "994c2d6560aef210",
    "g_mixed_03.p": "d8de8ceacd220c71",
    "g_mixed_04.p": "e420b7ac3757ad20",
    "g_mixed_05.p": "edd892a3ba7b9815",
    "g_mixed_06.p": "f264997ece1613b7",
    "g_mixed_07.p": "259717fca4421c88",
    "g_mixed_08.p": "4b7605e10003ea9f",
    "h00_worked.p": "55ca201547195446",
    "h01_refutation.p": "07b70d6e424cc7d4",
    "h02_propositional.p": "2ae406e3fba3d5b9",
    "h03_guarded_growth.p": "f0d3ea769b289ebb",
    "h04_disjunctive.p": "c82bef470071121f",
    "h05_tautology.p": "a4bc9104007cc4a3",
    "h06_dup_variants.p": "a0a63837f4787d64",
    "h07_chain.p": "93b80e6a31e6ef35",
    "h08_symmetric.p": "04ae04fa8923420d",
    "h09_deepening.p": "78bdfb7b1dd3b1f0",
}


def test_corpus_states_are_byte_identical_to_the_pinned_ones():
    got = {}
    for path in sorted((Path(__file__).parent / "corpus").glob("*.p")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        text = serialize_state(saturate(problem.ordering, problem.clauses))
        got[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert got == STATE_SHA256
