"""Group presentations and words over a signed generator alphabet.

A word is a tuple of nonzero ints: +i is the i-th generator (1-based),
-i its inverse.  The shortlex order ranks a generator's inverse
immediately after the generator itself, in declared generator order.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field

from .errors import PresentationSyntaxError

Word = tuple  # tuple[int, ...]

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_LETTER_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def free_reduce(word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclically_reduce(word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def inverse_word(word) -> Word:
    return tuple(-x for x in reversed(word))


@functools.cache
def letter_rank(x: int) -> int:
    """Position of a signed letter in the shortlex alphabet."""
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def shortlex_key(word):
    # map over the cached rank stays in C for every letter seen before
    return (len(word), tuple(map(letter_rank, word)))


def word_to_text(word, generators) -> str:
    """Render a word in the external syntax: 'a b^-1 c'.  Empty word is ''."""
    parts = []
    i = 0
    letters = list(word)
    while i < len(letters):
        x = letters[i]
        j = i
        while j < len(letters) and letters[j] == x:
            j += 1
        power = (j - i) * (1 if x > 0 else -1)
        name = generators[abs(x) - 1]
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)


def parse_word(text: str, generators, *, line: int = 0) -> Word:
    """Parse 'a b^-1 c^3' into a word; raises on unknown generators."""
    index = {name: i + 1 for i, name in enumerate(generators)}
    letters = []
    for col, token in _tokens_with_columns(text):
        m = _LETTER_RE.match(token)
        if not m:
            raise PresentationSyntaxError(f"bad letter {token!r}", line, col)
        name, power = m.group(1), int(m.group(2) or 1)
        g = index.get(name)
        if g is None:
            raise PresentationSyntaxError(f"unknown generator {name!r}", line, col)
        if power == 0:
            continue
        step = g if power > 0 else -g
        letters.extend([step] * abs(power))
    return tuple(letters)


def _tokens_with_columns(text):
    col = 1
    for chunk in re.split(r"(\s+)", text):
        if chunk and not chunk.isspace():
            yield col, chunk
        col += len(chunk)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation: ordered generator names plus relator words.

    Relators are stored freely and cyclically reduced; relators that
    reduce to the empty word are dropped and noted in ``warnings``.
    """

    generators: tuple
    relators: tuple
    warnings: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationSyntaxError("duplicate generator names")
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise PresentationSyntaxError(f"bad generator name {name!r}")
        for r in self.relators:
            for x in r:
                if not 1 <= abs(x) <= len(self.generators):
                    raise PresentationSyntaxError(f"letter {x} outside generator range")

    @classmethod
    def make(cls, generators, raw_relators) -> "GroupPresentation":
        """Normalize raw relators (reduce, drop trivial) and build."""
        kept, warnings = [], []
        for i, r in enumerate(raw_relators):
            red = cyclically_reduce(r)
            if red:
                kept.append(red)
            else:
                warnings.append(f"relator {i + 1} reduces to the empty word; dropped")
        return cls(tuple(generators), tuple(kept), tuple(warnings))

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def max_relator_length(self) -> int:
        return max((len(r) for r in self.relators), default=0)

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)

    def text(self, word) -> str:
        return word_to_text(word, self.generators)

    def content_key(self) -> str:
        """Canonical string for hashing/caching."""
        return json.dumps(
            {"generators": list(self.generators),
             "relators": [list(r) for r in self.relators]},
            sort_keys=True, separators=(",", ":"))


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the external presentation format (plain text or JSON).

    Text format::

        # comment
        generators: a, b
        relator: a b a^-1 b^-1

    A one-line shorthand ``a, b | a b a^-1 b^-1`` (relators separated by
    commas) is also accepted.  JSON format: object with "generators"
    (list of names) and "relators" (list of word strings); an optional
    "rules" key is consumed by the rewriting layer, not here.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    if "|" in text and "generators:" not in text:
        return _parse_pipe(text)
    return _parse_text(text)


def _parse_pipe(text: str) -> GroupPresentation:
    gens_part, _, rel_part = text.partition("|")
    generators = [g.strip() for g in gens_part.split(",") if g.strip()]
    if not generators:
        raise PresentationSyntaxError("no generators before '|'")
    relators = []
    for chunk in rel_part.split(","):
        chunk = chunk.strip()
        if chunk:
            relators.append(parse_word(chunk, generators, line=1))
    return GroupPresentation.make(generators, relators)


def presentation_rules_from_json(text: str):
    """Extract the optional "rules" entry of a JSON presentation, if any.

    Returns a list of (lhs_text, rhs_text) pairs or None.
    """
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return None
    data = json.loads(text)
    rules = data.get("rules")
    if rules is None:
        return None
    out = []
    for pair in rules:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise PresentationSyntaxError("each rule must be a [lhs, rhs] pair")
        out.append((str(pair[0]), str(pair[1])))
    return out


def _parse_json(text: str) -> GroupPresentation:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    if not isinstance(data, dict) or "generators" not in data:
        raise PresentationSyntaxError("JSON presentation needs a 'generators' key")
    generators = [str(g) for g in data["generators"]]
    relators = []
    for r in data.get("relators", []):
        relators.append(parse_word(str(r), generators))
    return GroupPresentation.make(generators, relators)


def _parse_text(text: str) -> GroupPresentation:
    generators = None
    relators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PresentationSyntaxError("expected 'generators:' or 'relator:' line", lineno, 1)
        head, _, rest = line.partition(":")
        head = head.strip()
        if head == "generators":
            if generators is not None:
                raise PresentationSyntaxError("duplicate generators line", lineno, 1)
            generators = [g.strip() for g in rest.split(",") if g.strip()]
        elif head == "relator":
            if generators is None:
                raise PresentationSyntaxError("relator before generators line", lineno, 1)
            relators.append(parse_word(rest.strip(), generators, line=lineno))
        else:
            raise PresentationSyntaxError(f"unknown directive {head!r}", lineno, 1)
    if generators is None:
        raise PresentationSyntaxError("missing generators line")
    return GroupPresentation.make(generators, relators)
