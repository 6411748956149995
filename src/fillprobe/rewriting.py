"""String rewriting over the signed generator alphabet.

Free-group cancellation (x x^-1 -> empty) is hardwired into the
reduction engine; explicit rules sit on top of it.  Every explicit rule
must strictly decrease the shortlex order, so rewriting terminates and
local confluence (all critical pairs joinable) implies confluence.

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
        table = {}
        for lhs, rhs in self.rules:
            if shortlex_key(lhs) <= shortlex_key(rhs):
                raise ValueError(f"rule {lhs} -> {rhs} is not shortlex-reducing")
            table[tuple(lhs)] = tuple(rhs)
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
        return _reduce(word, self._table, self._maxlhs, prefix)

    def rules_key(self) -> str:
        """Canonical serialization for cache keys."""
        return repr(sorted(self.rules))

    @functools.cached_property
    def index_automaton(self) -> "IndexAutomaton":
        """The index automaton of this system, built on first use."""
        return _index_automaton(self.ngens, [*self._table, *(
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


def _reduce(word, table: dict, maxlhs: int, prefix: Word = ()) -> Word:
    """Irreducible descendant of ``prefix + word`` under free cancellation
    and the rules in ``table`` (lhs -> rhs).  ``maxlhs`` bounds the lhs
    lengths from above; longer lengths only miss the table.

    ``prefix`` must be irreducible.  Every prefix of an irreducible word
    is irreducible, so scanning it would append it letter by letter with
    no rule firing; the scan starts from it instead."""
    # a tuple, so its suffix slices are table keys without a copy
    out = prefix
    pending = list(reversed(word))
    while pending:
        x = pending.pop()
        if out and out[-1] == -x:
            out = out[:-1]
            continue
        out += (x,)
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


def _critical_pair_sources(l1, r1, l2, r2):
    """Words with two distinct single-step reductions from rules 1 and 2.

    Yields (left_result, right_result) before normalization: proper
    overlaps (a suffix of l1 equals a prefix of l2) and strict
    inclusions of l2 inside l1.
    """
    # both kinds place l2's first letter somewhere in l1
    if l2[0] not in l1:
        return
    n1, n2 = len(l1), len(l2)
    for o in range(1, min(n1, n2)):
        if l1[n1 - o:] == l2[:o]:
            yield r1 + l2[o:], l1[:n1 - o] + r2
    if n2 < n1:
        for i in range(n1 - n2 + 1):
            if l1[i:i + n2] == l2:
                yield r1, l1[:i] + r2 + l1[i + n2:]


def _all_pair_sources(rules_a, rules_b):
    for l1, r1 in rules_a:
        for l2, r2 in rules_b:
            yield from _critical_pair_sources(l1, r1, l2, r2)


def check_local_confluence(rws: RewritingSystem):
    """Return unresolved critical pairs (normalized, deduplicated).

    Empty result plus shortlex-reducing rules means the system is
    confluent (Newman's lemma), so the status may be set CONFLUENT.
    """
    working = list(rws.rules) + _cancellation_rules(rws.ngens)
    unresolved = []
    seen = set()
    for u, v in _all_pair_sources(working, working):
        a, b = rws.reduce(u), rws.reduce(v)
        if a == b:
            continue
        pair = (a, b) if shortlex_key(a) >= shortlex_key(b) else (b, a)
        if pair not in seen:
            seen.add(pair)
            unresolved.append(pair)
    return unresolved


def _orient(u, v):
    if u == v:
        return None
    return (u, v) if shortlex_key(u) > shortlex_key(v) else (v, u)


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

    cancels = _cancellation_rules(ngens)
    table: dict = {}
    maxlhs = 0  # the longest lhs ever added; an upper bound after deletions

    def incomplete():
        return RewritingSystem(ngens, tuple(table.items()),
                               RewriteStatus.INCOMPLETE)

    # Priority queue of equations, smallest shortlex first (fairness).
    counter = 0
    heap = []

    def push(u, v):
        nonlocal counter
        heapq.heappush(heap, (shortlex_key(u), shortlex_key(v), counter, u, v))
        counter += 1

    for u, v in seeds:
        push(u, v)

    budget = _EQUATIONS_PER_RULE * max_rules
    processed = 0
    while heap:
        processed += 1
        if processed > budget:
            return incomplete()
        _, _, _, u, v = heapq.heappop(heap)
        pair = _orient(_reduce(u, table, maxlhs), _reduce(v, table, maxlhs))
        if pair is None:
            continue
        lhs, rhs = pair
        if len(lhs) > max_len or len(rhs) > max_len:
            return incomplete()
        # Interreduce: rules whose lhs the new rule rewrites go back to
        # the queue.  Every rhs left was irreducible under the old table,
        # and deleting rules keeps it so; the new rule's rhs is shortlex
        # below lhs, so it cannot contain lhs.  Hence only a rhs holding
        # lhs as a subword can reduce now, and only those are
        # re-normalized against the table with the new rule in.
        doomed = [l2 for l2 in table
                  if len(lhs) <= len(l2) and _contains(l2, lhs)]
        for l2 in doomed:
            push(l2, table.pop(l2))
        table[lhs] = rhs
        maxlhs = max(maxlhs, len(lhs))
        table.update({l2: _reduce(r2, table, maxlhs)
                      for l2, r2 in table.items() if _contains(r2, lhs)})
        if len(table) > max_rules:
            return incomplete()
        current = list(table.items()) + cancels
        new_rule = (lhs, rhs)
        for other in current:
            for a, b in _critical_pair_sources(*new_rule, *other):
                push(a, b)
            if other != new_rule:
                for a, b in _critical_pair_sources(*other, *new_rule):
                    push(a, b)
    return RewritingSystem(ngens, tuple(sorted(table.items())),
                           RewriteStatus.CONFLUENT)


def _contains(big, small) -> bool:
    n, m = len(big), len(small)
    if m > n:
        return False
    return any(big[i:i + m] == small for i in range(n - m + 1))


def system_from_rules(ngens: int, rules) -> RewritingSystem:
    """Build a system from explicit rules, CONFLUENT exactly when every
    critical pair is joinable."""
    canonical = tuple(sorted((tuple(l), tuple(r)) for l, r in rules))
    rws = RewritingSystem(ngens, canonical, RewriteStatus.INCOMPLETE)
    if not check_local_confluence(rws):
        rws = RewritingSystem(ngens, canonical, RewriteStatus.CONFLUENT)
    return rws
