"""String rewriting over the signed generator alphabet.

Free-group cancellation (x x^-1 -> empty) is hardwired into the
reduction engine; explicit rules sit on top of it.  Every explicit rule
must strictly decrease the shortlex order, so rewriting terminates and
local confluence (all critical pairs joinable) implies confluence.

Inside the module a word is the ``str`` of its letters'
``chr(letter_rank(x))``: shortlex order is ``(len(w), w)`` and a
letter's inverse is ``chr(ord(c) ^ 1)``.  Words cross the module
boundary as tuples.  Only dicts and lists of ``str`` words are iterated:
set order follows the hash salt.

Rules live in a ``_RuleTable``, which keeps indexes in step with its
lhs -> rhs dict (Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005, section 12.6).  Rewriting walks a trie of the
reversed left-hand sides back from the last letter read, so one walk
finds the longest lhs that ends there.  Critical pairs of a rule are
looked up rather than searched for over every rule pair: an overlap of
length k joins the rule to the left-hand sides that have its last k
letters as a proper prefix, or its first k letters as a proper suffix,
and each lhs inside it is found by the trie walk from each of its
letters.

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
from dataclasses import dataclass
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

    def __post_init__(self):
        for lhs, rhs in self.rules:
            if shortlex_key(lhs) <= shortlex_key(rhs):
                raise ValueError(f"rule {lhs} -> {rhs} is not shortlex-reducing")
        if len({tuple(lhs) for lhs, _ in self.rules}) < len(self.rules):
            raise ValueError("two rules share a left-hand side")

    @classmethod
    def empty(cls, ngens: int) -> "RewritingSystem":
        return cls(ngens, (), RewriteStatus.CONFLUENT)

    @property
    def confluent(self) -> bool:
        return self.status is RewriteStatus.CONFLUENT

    @functools.cached_property
    def _table(self) -> "_RuleTable":
        return _RuleTable((_encode(lhs), _encode(rhs)) for lhs, rhs in self.rules)

    def reduce(self, word, prefix: Word = ()) -> Word:
        """Rewrite ``prefix + word`` to an irreducible word (cancellation
        plus rules).  ``prefix`` must be irreducible already; it is taken
        as scanned, so only ``word`` is read letter by letter."""
        return _decode(self._table.reduce(_encode(word), _encode(prefix)))

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


class _RuleTable:
    """Encoded rules lhs -> rhs (``rules``) with indexes kept in step.

    ``trie`` holds every lhs reversed: a node is a dict from a letter to
    the node one letter further back, and the node where an lhs ends
    maps ``""`` to it.  ``prefixes`` and ``suffixes`` map each proper
    prefix and proper suffix to the left-hand sides that have it, in
    insertion order.  A rhs may change in ``rules`` directly; the
    indexes only read left-hand sides.
    """

    __slots__ = ("rules", "trie", "prefixes", "suffixes")

    def __init__(self, rules=()):
        self.rules = {}
        self.trie = {}
        self.prefixes = {}
        self.suffixes = {}
        for lhs, rhs in rules:
            self.add(lhs, rhs)

    def add(self, lhs: str, rhs: str):
        self.rules[lhs] = rhs
        node = self.trie
        for x in reversed(lhs):
            node = node.setdefault(x, {})
        node[""] = lhs
        for k in range(1, len(lhs)):
            self.prefixes.setdefault(lhs[:k], {})[lhs] = None
            self.suffixes.setdefault(lhs[-k:], {})[lhs] = None

    def pop(self, lhs: str) -> str:
        """Remove the rule for ``lhs`` and return its rhs."""
        for k in range(1, len(lhs)):
            for index, key in ((self.prefixes, lhs[:k]),
                               (self.suffixes, lhs[-k:])):
                lhss = index[key]
                del lhss[lhs]
                if not lhss:
                    del index[key]
        path = []
        node = self.trie
        for x in reversed(lhs):
            path.append((node, x))
            node = node[x]
        del node[""]
        for parent, x in reversed(path):
            if parent[x]:
                break
            del parent[x]
        return self.rules.pop(lhs)

    def reduce(self, code: str, prefix: str = "") -> str:
        """Irreducible descendant of ``prefix + code`` under free
        cancellation and the rules, all encoded.  After each letter the
        longest lhs ending at it, if any, is rewritten.

        ``prefix`` must be irreducible.  Every prefix of an irreducible
        word is irreducible, so scanning it would append it letter by
        letter with no rule firing; the scan starts from it instead."""
        rules, trie = self.rules, self.trie
        out = prefix
        pending = list(reversed(code))
        while pending:
            x = pending.pop()
            if out and ord(out[-1]) == ord(x) ^ 1:
                out = out[:-1]
                continue
            out += x
            node, lhs = trie, None
            for y in reversed(out):
                if y not in node:
                    break
                node = node[y]
                if "" in node:
                    lhs = node[""]
            if lhs is not None:
                out = out[:-len(lhs)]
                pending.extend(reversed(rules[lhs]))
        return out

    def critical_pairs(self, l1: str) -> list:
        """Words with two distinct single-step reductions, one of them by
        the rule for ``l1`` and the other by a rule or a cancellation
        pair, as (left_result, right_result) before normalization, the
        result of the rule applied first on the left.  Each is listed
        once per pair of rules and position, as follows:

        - ``l1`` then l2, overlapping in a suffix of ``l1`` that is a
          proper prefix of l2, for every rule l2 (``l1`` itself
          included) and cancellation pair;
        - l0 then ``l1``, overlapping in a proper suffix of l0, for every
          other rule l0 and cancellation pair;
        - every shorter lhs or cancellation pair inside ``l1``;
        - ``l1`` inside a cancellation pair, which takes a 1-letter lhs.

        A rule whose lhs holds ``l1`` is left out: completion has
        removed every such rule, and the search from that rule's lhs
        finds the pair.  So is a pair of two cancellations, which always
        joins."""
        rules, prefixes, suffixes = self.rules, self.prefixes, self.suffixes
        r1 = rules[l1]
        n = len(l1)
        out = []
        for k in range(1, n):
            for l2 in prefixes.get(l1[n - k:], ()):
                out.append((r1 + l2[k:], l1[:n - k] + rules[l2]))
            for l0 in suffixes.get(l1[:k], ()):
                if l0 != l1:
                    out.append((rules[l0] + l1[k:], l0[:-k] + r1))
        for j in range(1, n + 1):
            node = self.trie
            for i in range(j - 1, -1, -1):
                if l1[i] not in node:
                    break
                node = node[l1[i]]
                if "" in node and j - i < n:
                    out.append((r1, l1[:i] + rules[node[""]] + l1[j:]))
        first, last = l1[0], l1[-1]
        if n == 1:
            inverse = chr(ord(first) ^ 1)
            out.append(("", r1 + inverse))
            out.append(("", inverse + r1))
        else:
            out.append((r1 + chr(ord(last) ^ 1), l1[:-1]))
            out.append((l1[1:], chr(ord(first) ^ 1) + r1))
        if n > 2:
            for i in range(n - 1):
                if ord(l1[i]) ^ 1 == ord(l1[i + 1]):
                    out.append((r1, l1[:i] + l1[i + 2:]))
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


def check_local_confluence(rws: RewritingSystem):
    """Return unresolved critical pairs (normalized, deduplicated),
    sorted by shortlex key, larger word first in each pair.

    Empty result plus shortlex-reducing rules means the system is
    confluent (Newman's lemma), so the status may be set CONFLUENT.
    """
    table = rws._table
    sources = set()
    for lhs in table.rules:
        sources.update(table.critical_pairs(lhs))
    unresolved = set()
    for u, v in sources:
        a, b = table.reduce(u), table.reduce(v)
        if a != b:
            unresolved.add((a, b) if (len(a), a) > (len(b), b) else (b, a))
    return list(_decoded(sorted(
        unresolved, key=lambda ab: (len(ab[0]), ab[0], len(ab[1]), ab[1]))))


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

    table = _RuleTable()
    rules = table.rules

    def incomplete():
        return RewritingSystem(ngens, _decoded(rules.items()),
                               RewriteStatus.INCOMPLETE)

    # Priority queue of equations, smallest shortlex first (fairness).
    # Entries with equal keys hold the same pair: no tie-breaker needed,
    # and the order of pushes does not matter.
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
        u, v = table.reduce(u), table.reduce(v)
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
        for l2 in [l2 for l2 in rules if lhs in l2]:
            r2 = table.pop(l2)
            heapq.heappush(heap, (len(l2), l2, len(r2), r2))
        table.add(lhs, rhs)
        rules.update({l2: table.reduce(r2)
                      for l2, r2 in rules.items() if lhs in r2})
        if len(rules) > max_rules:
            return incomplete()
        # each pushed pair, duplicates included, is budgeted when popped
        for a, b in table.critical_pairs(lhs):
            heapq.heappush(heap, (len(a), a, len(b), b))
    return RewritingSystem(ngens, tuple(sorted(_decoded(rules.items()))),
                           RewriteStatus.CONFLUENT)


def system_from_rules(ngens: int, rules) -> RewritingSystem:
    """Build a system from explicit rules, CONFLUENT exactly when every
    critical pair is joinable."""
    canonical = tuple(sorted((tuple(l), tuple(r)) for l, r in rules))
    rws = RewritingSystem(ngens, canonical, RewriteStatus.INCOMPLETE)
    if not check_local_confluence(rws):
        rws = RewritingSystem(ngens, canonical, RewriteStatus.CONFLUENT)
    return rws
