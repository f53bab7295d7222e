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
    "g_ground_00.p": "62617d103dd4c4dc",
    "g_ground_01.p": "4b9b72897ae8f8e7",
    "g_ground_02.p": "dbd70be9356627b7",
    "g_ground_03.p": "a7f9d41b1a91c859",
    "g_ground_04.p": "43ebd651b6540468",
    "g_ground_05.p": "ce3646ffff6bf208",
    "g_ground_06.p": "9df5059f9fdbe85e",
    "g_ground_07.p": "eb6a28a0a15380f4",
    "g_ground_08.p": "b3daff1fa6be87ef",
    "g_ground_09.p": "cd2033aefbc10e34",
    "g_ground_10.p": "15e0850344b57c2d",
    "g_ground_11.p": "43fd08c5a35cdc78",
    "g_growth_00.p": "76cd706597ffc4b2",
    "g_growth_01.p": "472149d29fe002b3",
    "g_growth_02.p": "d089bd499860877a",
    "g_growth_03.p": "c99899acf38a4de0",
    "g_growth_04.p": "a6ecf6ef44492746",
    "g_growth_05.p": "5d8dae000b79d638",
    "g_growth_06.p": "e7c81411dd152faf",
    "g_growth_07.p": "18fbaf26eeb4ca74",
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
    "g_mixed_00.p": "c0f547e9213bcbb0",
    "g_mixed_01.p": "f27dca4b54c6b487",
    "g_mixed_02.p": "994c2d6560aef210",
    "g_mixed_03.p": "a248a6db082d23c6",
    "g_mixed_04.p": "076b936f8443f986",
    "g_mixed_05.p": "edd892a3ba7b9815",
    "g_mixed_06.p": "f264997ece1613b7",
    "g_mixed_07.p": "259717fca4421c88",
    "g_mixed_08.p": "561dc3a18cf1ce71",
    "h00_worked.p": "55ca201547195446",
    "h01_refutation.p": "07b70d6e424cc7d4",
    "h02_propositional.p": "2ae406e3fba3d5b9",
    "h03_guarded_growth.p": "67f290a1a502150e",
    "h04_disjunctive.p": "c82bef470071121f",
    "h05_tautology.p": "2415b93f8ef28815",
    "h06_dup_variants.p": "a0a63837f4787d64",
    "h07_chain.p": "93b80e6a31e6ef35",
    "h08_symmetric.p": "04ae04fa8923420d",
    "h09_deepening.p": "bc158326aa737fde",
}


def test_corpus_states_are_byte_identical_to_the_pinned_ones():
    got = {}
    for path in sorted((Path(__file__).parent / "corpus").glob("*.p")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        text = serialize_state(saturate(problem.ordering, problem.clauses))
        got[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert got == STATE_SHA256
