"""String rewriting over the signed generator alphabet.

Free-group cancellation (x x^-1 -> empty) is hardwired into the
reduction engine; explicit rules sit on top of it.  Every explicit rule
must strictly decrease the shortlex order, so rewriting terminates and
local confluence (all critical pairs joinable) implies confluence.

Inside the module a word is the ``str`` of its letters'
``chr(letter_rank(x))``: shortlex order is ``(len(w), w)``, a letter's
inverse is ``chr(ord(c) ^ 1)``, and subword, overlap and inclusion tests
run in C.  Words cross the module boundary as tuples.  Only dicts and
lists of ``str`` words are iterated: set order follows the hash salt.

Bounded Knuth-Bendix completion rewrites against its one live rule
table through the same engine that ``RewritingSystem.reduce`` uses, and
builds a ``RewritingSystem`` (which checks every rule's order again)
only when it returns.  It keeps the table interreduced: after each new
rule, every rhs is irreducible under the table and no lhs contains
another.  So a new rule lhs -> rhs can only make reducible the rules
whose lhs or rhs contains ``lhs``; completion revisits those alone.

A system's index automaton (``RewritingSystem.index_automaton``) is one
Aho-Corasick machine over its left-hand sides and the cancellation pairs,
as in rewriting tools such as KBMAG: reading a letter after an
irreducible word tells at once whether any rewrite applies.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from enum import Enum

from .errors import IncompleteSystemError
from .presentation import (
    GroupPresentation,
    Word,
    inverse_word,
    letter_rank,
    shortlex_key,
)

DEFAULT_MAX_RULES = 256
DEFAULT_MAX_LEN = 64
# Fairness cap: completion processes at most this many equations per rule
# budget unit before giving up.
_EQUATIONS_PER_RULE = 400


class RewriteStatus(Enum):
    CONFLUENT = "confluent"
    INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class RewritingSystem:
    """Oriented rules (lhs -> rhs, lhs shortlex-greater) plus a status.

    The implicit cancellation rules are not stored but participate in
    reduction and in critical-pair analysis.
    """

    ngens: int
    rules: tuple
    status: RewriteStatus
    _table: dict = field(default=None, compare=False, repr=False)
    _maxlhs: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        table = {}  # encoded lhs -> encoded rhs
        for lhs, rhs in self.rules:
            if shortlex_key(lhs) <= shortlex_key(rhs):
                raise ValueError(f"rule {lhs} -> {rhs} is not shortlex-reducing")
            table[_encode(lhs)] = _encode(rhs)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_maxlhs", max(map(len, table), default=0))

    @classmethod
    def empty(cls, ngens: int) -> "RewritingSystem":
        return cls(ngens, (), RewriteStatus.CONFLUENT)

    @property
    def confluent(self) -> bool:
        return self.status is RewriteStatus.CONFLUENT

    def reduce(self, word, prefix: Word = ()) -> Word:
        """Rewrite ``prefix + word`` to an irreducible word (cancellation
        plus rules).  ``prefix`` must be irreducible already; it is taken
        as scanned, so only ``word`` is read letter by letter."""
        return _decode(_reduce(_encode(word), self._table, self._maxlhs,
                               _encode(prefix)))

    def rules_key(self) -> str:
        """Canonical serialization for cache keys."""
        return repr(sorted(self.rules))

    @functools.cached_property
    def index_automaton(self) -> "IndexAutomaton":
        """The index automaton of this system, built on first use."""
        return _index_automaton(self.ngens, [*(lhs for lhs, _ in self.rules), *(
            lhs for lhs, _ in _cancellation_rules(self.ngens))])


class IndexAutomaton:
    """Aho-Corasick automaton over a set of patterns: a system's rule
    left-hand sides and the cancellation pairs (x, -x).

    State 0 is the start state.  ``goto[s][x]`` is the state after
    reading the signed letter x in state s; a row is indexed by the
    letter itself, so a negative letter counts from the row's end.  The
    state after a word stands for the word's longest suffix that is a
    prefix of some pattern.  ``terminal[s]`` holds when some pattern
    ends at the last letter read.  Such a pattern is a suffix of that
    longest suffix, and the failure links (the next shorter such
    suffixes) reach it, so the flag is inherited along them.

    An irreducible word contains no pattern.  So after it, a letter x
    reaches a terminal state exactly when some rewrite applies to
    ``word + (x,)``, necessarily one that ends at x.  A non-terminal
    state means that ``word + (x,)`` is irreducible as it stands and
    needs no reduction.
    """

    # a plain class: a dataclass would add about 0.5 ms to every import
    __slots__ = ("goto", "terminal")

    def __init__(self, goto: list, terminal: list):
        self.goto = goto            # per state: next state by signed letter
        self.terminal = terminal    # per state: some pattern ends here

    def scan(self, word) -> int | None:
        """State after reading ``word`` from the start state, or None if
        a pattern occurs in it (the word is reducible)."""
        goto, terminal = self.goto, self.terminal
        state = 0
        for x in word:
            state = goto[state][x]
            if terminal[state]:
                return None
        return state


def _index_automaton(ngens: int, patterns) -> IndexAutomaton:
    """Aho-Corasick automaton over nonempty ``patterns`` whose letters
    lie in +-1..+-ngens."""
    trie = [{}]
    terminal = [False]
    for pattern in patterns:
        state = 0
        for x in pattern:
            nxt = trie[state].get(x)
            if nxt is None:
                nxt = len(trie)
                trie[state][x] = nxt
                trie.append({})
                terminal.append(False)
            state = nxt
        terminal[state] = True
    # breadth first, so a state's failure target (a shorter suffix) has
    # its row and its final terminal flag before the state itself
    fail = [0] * len(trie)
    goto = [None] * len(trie)
    goto[0] = [0] * (2 * ngens + 1)
    for x, child in trie[0].items():
        goto[0][x] = child
    order = list(trie[0].values())
    for state in order:
        f = fail[state]
        terminal[state] = terminal[state] or terminal[f]
        row = list(goto[f])
        for x, child in trie[state].items():
            fail[child] = goto[f][x]
            row[x] = child
            order.append(child)
        goto[state] = row
    return IndexAutomaton(goto, terminal)


def _encode(word) -> str:
    return "".join(map(chr, map(letter_rank, word)))


def _decode(code: str) -> Word:
    return tuple(~(r // 2) if r % 2 else r // 2 + 1 for r in map(ord, code))


def _decoded(rules) -> tuple:
    return tuple((_decode(lhs), _decode(rhs)) for lhs, rhs in rules)


def _reduce(code: str, table: dict, maxlhs: int, prefix: str = "") -> str:
    """Irreducible descendant of ``prefix + code`` under free cancellation
    and the rules in ``table`` (lhs -> rhs), all encoded.  ``maxlhs``
    bounds the lhs lengths from above; longer lengths only miss the table.

    ``prefix`` must be irreducible.  Every prefix of an irreducible word
    is irreducible, so scanning it would append it letter by letter with
    no rule firing; the scan starts from it instead."""
    out = prefix
    pending = list(reversed(code))
    while pending:
        x = pending.pop()
        if out and ord(out[-1]) == ord(x) ^ 1:
            out = out[:-1]
            continue
        out += x
        for length in range(min(maxlhs, len(out)), 0, -1):
            rhs = table.get(out[-length:])
            if rhs is not None:
                out = out[:-length]
                pending.extend(reversed(rhs))
                break
    return out


def normal_form(word, rws: RewritingSystem) -> Word:
    """Unique irreducible descendant of a word; requires confluence."""
    if not rws.confluent:
        raise IncompleteSystemError(
            "normal forms require a confluent rewriting system")
    return rws.reduce(word)


def _cancellation_rules(ngens: int):
    rules = []
    for g in range(1, ngens + 1):
        rules.append(((g, -g), ()))
        rules.append(((-g, g), ()))
    return rules


def _pair_sources(rules_a, rules_b) -> list:
    """Words with two distinct single-step reductions, by l1 -> r1 in
    ``rules_a`` and l2 -> r2 in ``rules_b``, as (left_result,
    right_result) before normalization: per rule pair, proper overlaps (a
    suffix of l1 equals a prefix of l2), shortest first, then strict
    inclusions of l2 in l1, leftmost first.
    """
    out = []
    for l1, r1 in rules_a:
        n1 = len(l1)
        for l2, r2 in rules_b:
            # both kinds place l2's first letter somewhere in l1; an
            # overlap of length n1 - i < min(n1, n2) places it at i
            first = l2[0]
            if first not in l1:
                continue
            n2 = len(l2)
            lo = n1 - min(n1, n2) + 1
            i = l1.rfind(first, lo)
            while i >= lo:
                if l2.startswith(l1[i:]):
                    out.append((r1 + l2[n1 - i:], l1[:i] + r2))
                i = l1.rfind(first, lo, i)
            if n2 < n1:
                i = l1.find(l2)
                while i >= 0:
                    out.append((r1, l1[:i] + r2 + l1[i + n2:]))
                    i = l1.find(l2, i + 1)
    return out


def check_local_confluence(rws: RewritingSystem):
    """Return unresolved critical pairs (normalized, deduplicated).

    Empty result plus shortlex-reducing rules means the system is
    confluent (Newman's lemma), so the status may be set CONFLUENT.
    """
    working = [(_encode(l), _encode(r))
               for l, r in [*rws.rules, *_cancellation_rules(rws.ngens)]]
    unresolved = {}  # as an ordered set
    for u, v in _pair_sources(working, working):
        a = _reduce(u, rws._table, rws._maxlhs)
        b = _reduce(v, rws._table, rws._maxlhs)
        if a != b:
            unresolved[(a, b) if (len(a), a) > (len(b), b) else (b, a)] = None
    return list(_decoded(unresolved))


def _seed_rules(presentation: GroupPresentation):
    """One equation per relator: front half equals inverse of back half."""
    seeds = []
    for r in presentation.relators:
        h = (len(r) + 1) // 2
        seeds.append((r[:h], inverse_word(r[h:])))
    return seeds


def knuth_bendix_bounded(presentation: GroupPresentation,
                         max_rules: int = DEFAULT_MAX_RULES,
                         max_len: int = DEFAULT_MAX_LEN) -> RewritingSystem:
    """Bounded Knuth-Bendix completion seeded from the relators.

    Returns a CONFLUENT system if completion closes within the budget,
    otherwise an INCOMPLETE system carrying the partial rule set.
    Budget exhaustion is a status, never an exception.
    """
    ngens = presentation.num_generators
    seeds = _seed_rules(presentation)
    if max_rules < len(seeds):
        raise ValueError("max_rules below the relator-derived seed count")

    cancels = [(_encode(l), "") for l, _ in _cancellation_rules(ngens)]
    table: dict = {}
    maxlhs = 0  # the longest lhs ever added; an upper bound after deletions

    def incomplete():
        return RewritingSystem(ngens, _decoded(table.items()),
                               RewriteStatus.INCOMPLETE)

    # Priority queue of equations, smallest shortlex first (fairness).
    # Entries with equal keys hold the same pair: no tie-breaker needed.
    heap = []
    for u, v in seeds:
        u, v = _encode(u), _encode(v)
        heapq.heappush(heap, (len(u), u, len(v), v))

    budget = _EQUATIONS_PER_RULE * max_rules
    processed = 0
    while heap:
        processed += 1
        if processed > budget:
            return incomplete()
        _, u, _, v = heapq.heappop(heap)
        u, v = _reduce(u, table, maxlhs), _reduce(v, table, maxlhs)
        if u == v:
            continue
        lhs, rhs = (u, v) if (len(u), u) > (len(v), v) else (v, u)
        if len(lhs) > max_len:
            return incomplete()
        # Interreduce: rules whose lhs the new rule rewrites go back to
        # the queue.  Every rhs left was irreducible under the old table,
        # and deleting rules keeps it so; the new rule's rhs is shortlex
        # below lhs, so it cannot contain lhs.  Hence only a rhs holding
        # lhs as a subword can reduce now, and only those are
        # re-normalized against the table with the new rule in.
        for l2 in [l2 for l2 in table if lhs in l2]:
            r2 = table.pop(l2)
            heapq.heappush(heap, (len(l2), l2, len(r2), r2))
        table[lhs] = rhs
        maxlhs = max(maxlhs, len(lhs))
        table.update({l2: _reduce(r2, table, maxlhs)
                      for l2, r2 in table.items() if lhs in r2})
        if len(table) > max_rules:
            return incomplete()
        # each pushed pair, duplicates included, is budgeted when popped
        new_rule = [(lhs, rhs)]
        others = [item for item in table.items() if item[0] != lhs] + cancels
        for a, b in (_pair_sources(new_rule, new_rule + others)
                     + _pair_sources(others, new_rule)):
            heapq.heappush(heap, (len(a), a, len(b), b))
    return RewritingSystem(ngens, tuple(sorted(_decoded(table.items()))),
                           RewriteStatus.CONFLUENT)


def system_from_rules(ngens: int, rules) -> RewritingSystem:
    """Build a system from explicit rules, CONFLUENT exactly when every
    critical pair is joinable."""
    canonical = tuple(sorted((tuple(l), tuple(r)) for l, r in rules))
    rws = RewritingSystem(ngens, canonical, RewriteStatus.INCOMPLETE)
    if not check_local_confluence(rws):
        rws = RewritingSystem(ngens, canonical, RewriteStatus.CONFLUENT)
    return rws
