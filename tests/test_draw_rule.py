"""The inlined draws behind the golden CSVs, against ``random.Random`` itself.

Marker's victim index and the ``uniform``/``phased`` workloads draw like
``random.Random.choice`` and ``randrange``: ``getrandbits(n.bit_length())``,
redrawn while ``>= n``.  The noise models spell ``uniform(a, b)`` as
``a + (b - a) * random()``.  A Python whose ``random`` changes either rule
fails here rather than deep in a golden diff.  Plain ``random`` only, so any
interpreter can run it: ``python tests/test_draw_rule.py``.
"""

import random


def below(getrandbits, n):
    bits = n.bit_length()
    i = getrandbits(bits)
    while i >= n:
        i = getrandbits(bits)
    return i


def test_rejection_draw_matches_choice_and_randrange():
    for method in ("choice", "randrange"):
        inline, api = random.Random(12345), random.Random(12345)
        for size in range(1, 1101):
            want = api.choice(range(size)) if method == "choice" else api.randrange(size)
            assert below(inline.getrandbits, size) == want, (method, size)
        assert inline.getstate() == api.getstate(), method


def test_spelled_out_uniform_matches_uniform():
    inline, api = random.Random(6789), random.Random(6789)
    for a, b in [(-8.0, 8.0), (0.0, 100.0), (-1e308, 1e308), (2.5, 2.5), (0.0, 1e-300)]:
        for _ in range(200):
            got, want = a + (b - a) * inline.random(), api.uniform(a, b)
            assert repr(got) == repr(want), (a, b)
    assert inline.getstate() == api.getstate()


if __name__ == "__main__":
    import sys

    test_rejection_draw_matches_choice_and_randrange()
    test_spelled_out_uniform_matches_uniform()
    print(f"draw rules match random.Random on Python {sys.version.split()[0]}")
