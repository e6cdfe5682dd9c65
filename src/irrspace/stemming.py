"""Porter's suffix-stripping stemmer.

Straight implementation of the 1980 algorithm (steps 1a through 5b).  Inputs
are assumed to be lowercase; words of length <= 2 and tokens containing
digits fall through unchanged, which keeps synthetic vocabularies stable.
"""

from __future__ import annotations

import functools

# distinct words remembered by porter_stem
_CACHE_SIZE = 1 << 16

_VOWELS = frozenset("aeiou")


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_cons = True
    for i in range(len(stem)):
        cons = _is_cons(stem, i)
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_cons(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(stem) < 3:
        return False
    return (
        _is_cons(stem, len(stem) - 3)
        and not _is_cons(stem, len(stem) - 2)
        and _is_cons(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _replace(word: str, suffix: str, repl: str, min_measure: int) -> str | None:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + repl
    return word


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def porter_stem(word: str) -> str:
    if len(word) <= 2 or any(ch.isdigit() for ch in word):
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = None
        if word.endswith("ed") and _has_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is not None:
            word = stripped
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_cons(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2
    for suffix, repl in _STEP2:
        out = _replace(word, suffix, repl, 0)
        if out is not None:
            word = out
            break

    # Step 3
    for suffix, repl in _STEP3:
        out = _replace(word, suffix, repl, 0)
        if out is not None:
            word = out
            break

    # Step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and stem and stem[-1] not in "st":
                    continue
                word = stem
            break

    # Step 5a
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        word = word[:-1]

    return word
