"""Seeded input generators and the benchmark's own reference checks.

Nothing here imports dyck312: paths, their permutation images, class
membership and 312-avoidance are computed by independent code, so the library
is judged against them and receives only the generated text.
"""

from __future__ import annotations

import random


def random_dyck_word(rng: random.Random, n: int) -> str:
    """Uniform random Dyck word of semilength n, by the cycle lemma.

    A shuffle of n ups and n+1 downs has exactly one rotation whose proper
    prefixes all stay at or above the axis: the one starting just after the
    first lowest point. Dropping that rotation's final down leaves a Dyck word.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    level = low = cut = 0
    for i, c in enumerate(steps):
        level += 1 if c == "U" else -1
        if level < low:
            low, cut = level, i + 1
    return "".join(steps[cut:] + steps[:cut - 1])


def image(word: str) -> list[int]:
    """Down-step labelling: ups are labelled 1..n left to right and each down
    takes the label of its matching up, i.e. the last up that left its level."""
    last_up_from: list[int] = []
    out: list[int] = []
    level = label = 0
    for c in word:
        if c == "U":
            label += 1
            if level == len(last_up_from):
                last_up_from.append(label)
            else:
                last_up_from[level] = label
            level += 1
        else:
            level -= 1
            out.append(last_up_from[level])
    return out


def height(word: str) -> int:
    level = top = 0
    for c in word:
        level += 1 if c == "U" else -1
        top = max(top, level)
    return top


def in_class(word: str, h: int) -> bool:
    """Height at most h and no valley (a DU factor) whose bottom is at h-1."""
    level = 0
    for i, c in enumerate(word):
        level += 1 if c == "U" else -1
        if level > h:
            return False
        if c == "D" and level == h - 1 and word[i + 1:i + 2] == "U":
            return False
    return True


def contains_312(entries: list[int]) -> bool:
    """Quadratic scan: some entry a has, to its right, two smaller entries in
    increasing order."""
    for i, a in enumerate(entries):
        low = a
        for c in entries[i + 1:]:
            if c < a:
                if c > low:
                    return True
                low = c
    return False


def dyck_words(n: int) -> list[str]:
    """Every Dyck word of semilength n, built as U w D w' (first return)."""
    table: list[list[str]] = [[""]]
    for m in range(1, n + 1):
        table.append(
            ["U" + a + "D" + b for k in range(m) for a in table[k] for b in table[m - 1 - k]]
        )
    return table[n]


def tree_label(word: str, h: int) -> int:
    """Generating-tree label: 1 for the empty path, t+1 for an initial run of
    t < h ups, h-1 for an initial run of exactly h."""
    if not word:
        return 1
    t = len(word) - len(word.lstrip("U"))
    return h - 1 if t == h else t + 1


# ------------------------------------------------------------ map stream

MALFORMED_SHARE = 50  # one malformed line per this many valid lines


def paired_sizes(rng: random.Random, count: int, mean: int) -> list[int]:
    """count sizes spread over 1..2*mean-1 whose total is exactly count*mean,
    so every seed gives the same amount of work."""
    sizes: list[int] = []
    for _ in range(count // 2):
        s = rng.randint(1, 2 * mean - 1)
        sizes += [s, 2 * mean - s]
    rng.shuffle(sizes)
    return sizes


def _bad_character(rng: random.Random, word: str) -> tuple[str, str]:
    i = rng.randrange(len(word))
    c = rng.choice("XYZudx*")
    return word[:i] + c + word[i + 1:], f"invalid character {c!r} at index {i}"


def _unbalanced(rng: random.Random, word: str) -> tuple[str, str]:
    # Dropping the final down leaves open only the up that starts the last
    # primitive factor, i.e. the one after the last interior return to 0.
    level = start = 0
    for i, c in enumerate(word[:-1]):
        level += 1 if c == "U" else -1
        if level == 0:
            start = i + 1
    return word[:-1], f"unbalanced word: unmatched 'U' at index {start}"


def _negative_prefix(rng: random.Random, word: str) -> tuple[str, str]:
    returns = [0]
    level = 0
    for i, c in enumerate(word):
        level += 1 if c == "U" else -1
        if level == 0:
            returns.append(i + 1)
    i = rng.choice(returns)
    return word[:i] + "DU" + word[i:], f"prefix dips below the axis at index {i}"


def _not_a_permutation(rng: random.Random, entries: list[int]) -> tuple[str, str]:
    n = len(entries)
    bad = list(entries)
    if n >= 2 and rng.random() < 0.5:
        i, j = sorted(rng.sample(range(n), 2))
        bad[j] = bad[i]
        message = f"duplicate value {bad[i]}"
    else:
        bad[rng.randrange(n)] = n + 1
        message = f"value {n + 1} out of range 1..{n}"
    return " ".join(map(str, bad)), message


def _contains_312(rng: random.Random, entries: list[int]) -> tuple[str, str]:
    """Swap random entries until the permutation contains 312; needs length >= 3."""
    bad = list(entries)
    while not contains_312(bad):
        i, j = rng.sample(range(len(bad)), 2)
        bad[i], bad[j] = bad[j], bad[i]
    text = " ".join(map(str, bad))
    return text, f"'{text}' contains 312"


PATH_ERRORS = (_bad_character, _unbalanced, _negative_prefix)
PERM_ERRORS = (_not_a_permutation, _contains_312)


def map_stream(seed: int, count: int = 1000, mean: int = 250):
    """Random paths with their images, and the two text streams fed to map.

    Returns a dict: words, perms (as text), heights h per pair with the
    expected membership, and for each direction the stdin text, the expected
    output lines, and the expected 'line i: message' errors.
    """
    rng = random.Random(seed)
    words = [random_dyck_word(rng, n) for n in paired_sizes(rng, count, mean)]
    images = [image(w) for w in words]
    perms = [" ".join(map(str, e)) for e in images]
    hs = [max(1, height(w) + rng.choice((-1, 0, 1))) for w in words]
    member = [in_class(w, h) for w, h in zip(words, hs)]

    def stream(valid, outputs, objects, makers):
        lines: list[str] = []
        errors: list[str] = []
        for i, text in enumerate(valid):
            if i % MALFORMED_SHARE == MALFORMED_SHARE // 2:
                maker = makers[(i // MALFORMED_SHARE) % len(makers)]
                bad, message = maker(rng, objects[rng.randrange(len(objects))])
                lines.append(bad)
                errors.append(f"line {len(lines)}: {message}")
            lines.append(text)
        return {"stdin": "\n".join(lines) + "\n", "stdout": list(outputs), "stderr": errors}

    return {
        "words": words,
        "perms": perms,
        "hs": hs,
        "member": member,
        "to-perm": stream(words, perms, words, PATH_ERRORS),
        "to-path": stream(perms, words, [e for e in images if len(e) >= 3], PERM_ERRORS),
    }
