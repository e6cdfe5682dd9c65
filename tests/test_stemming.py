"""Suffix stripper checked against the published reference vocabulary."""

import pytest

from irrspace.stemming import porter_stem

# (input, expected) pairs from the algorithm's own worked examples, one or
# two per rule so every step is pinned independently.
CLASSIC = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("radically", "radic"),
    ("differently", "differ"),
    ("vilely", "vile"),
    ("analogously", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensitivity", "sensit"),
    ("sensibility", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angularity", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("generalizations", "gener"),
    ("oscillators", "oscil"),
]

# Not a published example: Step 5a's (m=1 and not *o) E -> drops the e of
# "ace", because the stem "ac" has m = 1 and is too short to end
# consonant-vowel-consonant (*o).
SHORT_STEM = ("ace", "ac")


@pytest.mark.parametrize("word,expected", CLASSIC)
def test_classic_vocabulary(word, expected):
    assert porter_stem(word) == expected


def test_step5a_drops_e_after_a_stem_too_short_for_cvc():
    word, expected = SHORT_STEM
    assert porter_stem(word) == expected


@pytest.mark.parametrize("word,expected", [
    ("opinion", "opinion"), ("communion", "communion"), ("adoption", "adopt"),
])
def test_step4_ion_is_removed_only_after_s_or_t(word, expected):
    assert porter_stem(word) == expected


def test_short_words_pass_through():
    assert porter_stem("at") == "at"
    assert porter_stem("be") == "be"
    assert porter_stem("a") == "a"


def test_tokens_with_digits_are_left_alone():
    # synthetic vocabulary like t0w015 must survive stemming unchanged
    assert porter_stem("t0w015") == "t0w015"
    assert porter_stem("sw003") == "sw003"


def test_idempotent_on_common_words():
    for w in ("running", "connections", "argued", "happiness"):
        once = porter_stem(w)
        assert porter_stem(once) == once


def test_cached_stem_equals_uncached():
    words = [w for pair in CLASSIC for w in pair]
    words += ["opinion", "communion", "at", "be", "a", "t0w015", "sw003",
              "running", "connections", "argued", "happiness"]
    for w in words + words:  # the second pass reads the cache
        assert porter_stem(w) == porter_stem.__wrapped__(w)
