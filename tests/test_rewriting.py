import functools
import hashlib
import heapq
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fillprobe import rewriting
from fillprobe.catalog import get_entry, load
from fillprobe.errors import IncompleteSystemError
from fillprobe.presentation import (
    GroupPresentation,
    free_reduce,
    letter_rank,
    parse_presentation,
    shortlex_key,
)
from fillprobe.rewriting import (
    _EQUATIONS_PER_RULE,
    RewriteStatus,
    RewritingSystem,
    _RuleTable,
    _cancellation_rules,
    _decode,
    _encode,
    _seed_rules,
    check_local_confluence,
    knuth_bendix_bounded,
    normal_form,
    system_from_rules,
)


def words_over(ngens, max_size=12):
    letters = st.integers(min_value=-ngens, max_value=ngens).filter(lambda x: x != 0)
    return st.lists(letters, max_size=max_size).map(tuple)


def test_z2_completion_finds_commutation_rules(z2):
    presentation, _ = z2
    rws = knuth_bendix_bounded(presentation)
    assert rws.confluent
    assert ((2, 1), (1, 2)) in rws.rules
    assert len(rws.rules) == 4
    assert check_local_confluence(rws) == []


def test_z2_normal_forms(z2):
    presentation, rws = z2
    assert normal_form(presentation.word("b a"), rws) == presentation.word("a b")
    assert normal_form(presentation.word("b a a^-1"), rws) == (2,)
    assert normal_form((), rws) == ()


def test_free_group_empty_system():
    p = parse_presentation("a, b |")
    rws = knuth_bendix_bounded(p)
    assert rws.confluent and rws.rules == ()
    assert normal_form(p.word("a b a"), rws) == p.word("a b a")


def test_incomplete_system_rejected_by_normal_form():
    p = parse_presentation("a, t | t a t^-1 a^-2")
    rws = knuth_bendix_bounded(p, max_rules=4)
    assert rws.status is RewriteStatus.INCOMPLETE
    with pytest.raises(IncompleteSystemError):
        normal_form((1,), rws)


def test_bs12_small_budget_incomplete():
    p = parse_presentation("a, t | t a t^-1 a^-2")
    assert not knuth_bendix_bounded(p, max_rules=4).confluent


def test_seed_count_precondition():
    p = parse_presentation("a, b | a b a^-1 b^-1")
    with pytest.raises(ValueError):
        knuth_bendix_bounded(p, max_rules=0)


def test_surface_group_completes(surface):
    presentation, _ = surface
    rws = knuth_bendix_bounded(presentation)
    assert rws.confluent
    assert len(rws.rules) == 8
    assert normal_form(presentation.relators[0], rws) == ()
    assert check_local_confluence(rws) == []


def test_torsion_group_inverse_identification():
    p = parse_presentation("a | a^2")
    rws = knuth_bendix_bounded(p)
    assert rws.confluent
    assert normal_form((-1,), rws) == (1,)
    assert normal_form((1, 1), rws) == ()


def test_empty_rule_set_locally_confluent():
    rws = RewritingSystem.empty(2)
    assert check_local_confluence(rws) == []


def test_single_commutation_rule_is_not_confluent_over_inverses():
    # b a a^-1 reduces to both 'b' and the irreducible 'a b a^-1';
    # completion is what repairs this by adding the inverse variants.
    rws = system_from_rules(2, [((2, 1), (1, 2))])
    assert rws.status is RewriteStatus.INCOMPLETE
    unresolved = check_local_confluence(rws)
    assert unresolved


def test_aa_rule_set_leaves_inverse_unjoined():
    # over the group alphabet {a, a^-1}, the pair (a^-1, a) stays apart
    # until a rule a^-1 -> a is added
    rws = system_from_rules(1, [((1, 1), ()), ((1, 1, 1), (1,))])
    unresolved = check_local_confluence(rws)
    assert ((-1,), (1,)) in unresolved


def test_rules_must_be_shortlex_reducing():
    with pytest.raises(ValueError):
        RewritingSystem(2, (((1,), (1, 2)),), RewriteStatus.INCOMPLETE)
    # two rules for one lhs: one would shadow the other in every lookup
    with pytest.raises(ValueError):
        RewritingSystem(2, (((2, 1), (1, 2)), ((2, 1), (1,))),
                        RewriteStatus.INCOMPLETE)


def test_status_validated_by_system_from_rules(z3):
    presentation, rws = z3
    assert rws.confluent
    assert len(rws.rules) == 12


@given(words_over(2))
@settings(max_examples=60)
def test_normal_form_idempotent_z2(z2, w):
    _, rws = z2
    nf = normal_form(w, rws)
    assert normal_form(nf, rws) == nf
    assert shortlex_key(nf) <= shortlex_key(w)


@given(words_over(2, max_size=8), words_over(2, max_size=8))
@settings(max_examples=60)
def test_normal_form_respects_multiplication_z2(z2, u, v):
    _, rws = z2
    assert normal_form(u + v, rws) == normal_form(normal_form(u, rws) + v, rws)


@given(words_over(4, max_size=10), words_over(4, max_size=10))
@settings(max_examples=40)
def test_normal_form_respects_multiplication_surface(surface, u, v):
    _, rws = surface
    assert normal_form(u + v, rws) == normal_form(normal_form(u, rws) + v, rws)


@st.composite
def rule_systems(draw):
    """(ngens, shortlex-reducing rules): random sets, mostly not
    confluent, or a confluent catalog system."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(["F2", "Z2", "Z3", "S2"]))
        presentation, rws = load(name)
        return presentation.num_generators, rws.rules
    ngens = draw(st.integers(min_value=1, max_value=3))
    pairs = draw(st.lists(st.tuples(words_over(ngens, 4), words_over(ngens, 4)),
                          max_size=6))
    rules = {}
    for u, v in pairs:
        if u != v:
            lhs, rhs = (u, v) if shortlex_key(u) > shortlex_key(v) else (v, u)
            rules.setdefault(lhs, rhs)
    return ngens, tuple(rules.items())


@given(rule_systems(), st.data())
@settings(max_examples=150)
def test_reduce_from_irreducible_prefix(system, data):
    # starting the scan at an irreducible prefix w gives what scanning
    # w + v from its first letter gives, whether or not the rules are
    # confluent
    ngens, rules = system
    rws = RewritingSystem(ngens, rules, RewriteStatus.INCOMPLETE)
    w = rws.reduce(data.draw(words_over(ngens)))
    for x in [g for g in range(1, ngens + 1)] + [-g for g in range(1, ngens + 1)]:
        assert rws.reduce((x,), w) == rws.reduce(w + (x,))
    v = data.draw(words_over(ngens, max_size=6))
    assert rws.reduce(v, w) == rws.reduce(w + v)


# a b a is a prefix of the lhs a b a a and ends in the lhs b a, so the
# state after a b a is terminal only through its failure link
_INHERITED_TERMINAL = (2, (((1, 2, 1, 1), ()), ((2, 1), (1, 2))))


@given(rule_systems(), words_over(3), words_over(3))
@example(_INHERITED_TERMINAL, (1, 2), ())
@settings(max_examples=150)
def test_index_automaton_flags_exactly_the_moves_that_rewrite(system, w, u):
    # after an irreducible w, letter x reaches a terminal state exactly
    # when reducing w + (x,) changes it, confluent rules or not; scanning
    # any word stops (None) exactly when it is reducible
    ngens, rules = system
    rws = RewritingSystem(ngens, rules, RewriteStatus.INCOMPLETE)
    automaton = rws.index_automaton
    w = rws.reduce(tuple(x for x in w if abs(x) <= ngens))
    state = automaton.scan(w)
    assert state is not None
    for x in [g for g in range(1, ngens + 1)] + [-g for g in range(1, ngens + 1)]:
        fires = automaton.terminal[automaton.goto[state][x]]
        assert fires == (rws.reduce((x,), w) != w + (x,))
        if not fires:
            assert automaton.scan(w + (x,)) == automaton.goto[state][x]
    u = tuple(x for x in u if abs(x) <= ngens)
    assert (automaton.scan(u) is None) == (rws.reduce(u) != u)


def _random_strategy_reduce(rws, word, rng):
    """Apply applicable rewrites (rules and cancellations) at random
    positions until irreducible."""
    table = dict(rws.rules)
    for g in range(1, rws.ngens + 1):
        table[(g, -g)] = ()
        table[(-g, g)] = ()
    w = tuple(word)
    while True:
        moves = []
        for lhs, rhs in table.items():
            n, m = len(w), len(lhs)
            for i in range(n - m + 1):
                if w[i:i + m] == lhs:
                    moves.append((i, lhs, rhs))
        if not moves:
            return w
        i, lhs, rhs = moves[rng.randrange(len(moves))]
        w = w[:i] + rhs + w[i + len(lhs):]


@pytest.mark.parametrize("seed", range(6))
def test_confluence_under_randomized_strategies(z2, surface, seed):
    rng = random.Random(seed)
    for presentation, rws in (z2, surface):
        ngens = presentation.num_generators
        for _ in range(20):
            w = tuple(rng.choice([g, -g])
                      for g in rng.choices(range(1, ngens + 1), k=rng.randrange(12)))
            assert _random_strategy_reduce(rws, w, rng) == normal_form(w, rws)


# presentations pinned below that are not catalog entries: the surface
# group with its generators interleaved, whose completion diverges
_SOURCES = {
    "S2-interleaved": "generators: a1, b1, a2, b2\n"
                      "relator: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n",
}


def _source(name):
    return _SOURCES[name] if name in _SOURCES else get_entry(name).source


# sha256 of repr(rules): the exact rule tuples, order included, that
# completion returns at each of its return points (rule budget, length
# budget, closed)
_PINNED_COMPLETIONS = [
    ("H3", 256, 64, "incomplete", 257,
     "791dd08717dd107d4bbeb39efff8c8591bcabccac260edc662bb2f54540acb2c"),
    ("H3", 16, 64, "incomplete", 17,
     "f7c8966e7085709fea842881cc0703788973ff013f311ecdf4fd319760b4bce8"),
    ("H3", 64, 64, "incomplete", 65,
     "a9334450b4c9d251648c1358ab40b293b78674a0801ffdfe5bb8cecfb18c5780"),
    ("H3", 256, 5, "incomplete", 72,
     "ea0e1934546e2d0a1eaf5cd8f96e891b7c86a9608e4ab1fd33e03f747b4daeb0"),
    ("BS12", 256, 64, "incomplete", 257,
     "7ef6527a883251238213e77a7f5139db6c471e419703329188b02cfd9f26b710"),
    ("BS12", 16, 64, "incomplete", 17,
     "788f93528540a49afa16c06babf86cdf85b3c409ec38a7a9005866c609782031"),
    ("BS12", 64, 64, "incomplete", 65,
     "0bf206583bc67aa0d5f152d187434d6bc09610545981a5e5d8c273e5eb9227dd"),
    ("BS12", 256, 6, "incomplete", 29,
     "0be68e359b037adcc38c4b412f1ace83172be1e4439dfe8780137fbf79dff4de"),
    ("S2", 256, 64, "confluent", 8,
     "bb6846933c5fdcd3c88c64d8b1a084a7614ec7b60dee751973ff547bf40f0904"),
    ("Z3", 256, 64, "confluent", 12,
     "5055574e10705da5352ddc25b484f76277bd8d2ce8d6003ef550f2f14b92af1c"),
    # 4 generators (8 letters); stops on the length budget
    ("S2-interleaved", 256, 64, "incomplete", 31,
     "b84f4dccc1a24405b34dfa6190f3454f656387cb99735199201d187c403b2602"),
]


@pytest.mark.parametrize(
    "name,max_rules,max_len,status,count,digest", _PINNED_COMPLETIONS,
    ids=[f"{c[0]}-rules{c[1]}-len{c[2]}" for c in _PINNED_COMPLETIONS])
def test_completion_returns_pinned_rules(name, max_rules, max_len, status,
                                         count, digest):
    p = parse_presentation(_source(name))
    rws = knuth_bendix_bounded(p, max_rules=max_rules, max_len=max_len)
    assert rws.status.value == status
    assert len(rws.rules) == count
    assert hashlib.sha256(repr(rws.rules).encode()).hexdigest() == digest


def _pair_key(pair):
    return shortlex_key(pair[0]), shortlex_key(pair[1])


# sha256 of repr of the unresolved critical pairs that
# check_local_confluence finds, sorted by shortlex key, over the rules of
# three incomplete completions
_PINNED_UNRESOLVED = [
    ("H3", 16, 28,
     "fb9f815cb994e2a29d2924bf3d5cc83967212eb411fae16db5ac89acbfb7d84a"),
    ("BS12", 16, 16,
     "44b6316ba210e91ed6e49c9b7c8d314388a183d978245880ad2bbd0564afc978"),
    ("S2-interleaved", 256, 2,
     "a99c25c14e6b5eccc07d4645e8129c39452f21ae9b6d674b28d329eb92c9043e"),
]


@pytest.mark.parametrize("name,max_rules,count,digest", _PINNED_UNRESOLVED,
                         ids=[c[0] for c in _PINNED_UNRESOLVED])
def test_unresolved_pairs_pinned(name, max_rules, count, digest):
    rules = _catalog_completion(name, max_rules, 64).rules
    ngens = parse_presentation(_source(name)).num_generators
    unresolved = check_local_confluence(system_from_rules(ngens, rules))
    pairs = sorted(unresolved, key=_pair_key)
    assert unresolved == pairs
    assert len(pairs) == count
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


def test_unresolved_pairs_of_one_commutation_rule():
    unresolved = check_local_confluence(system_from_rules(2, [((2, 1), (1, 2))]))
    assert unresolved == [((1, 2, -1), (2,)), ((-2, 1, 2), (1,))]


@st.composite
def small_presentations(draw):
    """Random presentations: 1-3 generators, 1-3 relators of length 1-7."""
    ngens = draw(st.integers(min_value=1, max_value=3))
    relators = draw(st.lists(
        words_over(ngens, 7).filter(lambda w: len(w) >= 1),
        min_size=1, max_size=3))
    return GroupPresentation.make("abc"[:ngens], relators)


_budgets = st.tuples(st.integers(min_value=4, max_value=24),
                     st.integers(min_value=4, max_value=16))

# Random presentations rarely add a rule whose lhs sits inside an older
# rule's rhs (about 1 in 500 draws); in these two it does, and the
# confluent system is only interreduced if that rhs is re-normalized.
_RHS_RENORMALIZED = [
    (parse_presentation("a, b | a^2 b a, a^-1 b^-2 a b, b^2 a^-1 b^-2 a^-2"),
     (14, 16)),
    (parse_presentation("a, b | b^-1 a b^-1 a, b^-3 a^2"), (10, 11)),
]


def _with_rhs_renormalized(test):
    for presentation, budget in _RHS_RENORMALIZED:
        test = example(presentation, budget)(test)
    return test


@functools.cache
def _catalog_completion(name, max_rules, max_len):
    p = parse_presentation(_source(name))
    return knuth_bendix_bounded(p, max_rules=max_rules, max_len=max_len)


# reduction and containment on tuple words, verbatim from before the
# module moved to encoded words: the reference completion and the
# interreduction check run on them, independently of the module
def _reduce(word, table, maxlhs, prefix=()):
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


def _contains(big, small) -> bool:
    n, m = len(big), len(small)
    if m > n:
        return False
    return any(big[i:i + m] == small for i in range(n - m + 1))


def _assert_interreduced(rws):
    """What completion keeps after every rule it adds: each rhs is
    irreducible, no lhs contains another lhs, each lhs is freely
    reduced."""
    lhss = [lhs for lhs, _ in rws.rules]
    for lhs, rhs in rws.rules:
        assert rws.reduce(rhs) == rhs
        assert free_reduce(lhs) == lhs
        assert not any(other != lhs and _contains(lhs, other)
                       for other in lhss)


@pytest.mark.parametrize(
    "name,max_rules,max_len",
    [c[:3] for c in _PINNED_COMPLETIONS]
    + [(name, 256, 64) for name in ("F1", "F2", "Z2")],
    ids=[f"{c[0]}-rules{c[1]}-len{c[2]}" for c in _PINNED_COMPLETIONS]
    + [f"{name}-rules256-len64" for name in ("F1", "F2", "Z2")])
def test_catalog_completion_is_interreduced(name, max_rules, max_len):
    _assert_interreduced(_catalog_completion(name, max_rules, max_len))


@given(small_presentations(), _budgets)
@_with_rhs_renormalized
@settings(max_examples=80, deadline=None)
def test_random_completion_is_interreduced(presentation, budget):
    max_rules, max_len = budget
    _assert_interreduced(knuth_bendix_bounded(
        presentation, max_rules=max_rules, max_len=max_len))


def _old_shortlex_key(word):
    return (len(word), tuple(letter_rank(x) for x in word))


@given(st.lists(words_over(6), max_size=20))
@settings(max_examples=60)
def test_shortlex_key_matches_letter_by_letter_key(words):
    for w in words:
        assert shortlex_key(w) == _old_shortlex_key(w)
    # a letter no word has used, so its rank is computed after the other
    # letters' ranks are already known
    fresh = (-977, 3, 977)
    assert shortlex_key(fresh) == _old_shortlex_key(fresh)
    assert letter_rank(-977) == 2 * 976 + 1


@given(st.lists(words_over(6), max_size=20))
@example([(), (977,), (-977, 1, 977), (-977,)])
@settings(max_examples=60)
def test_encoding_round_trips_and_keeps_shortlex_order(words):
    # ranks of 256 and above (+-977) are code points past Latin-1
    codes = [_encode(w) for w in words]
    for w, code in zip(words, codes):
        assert _decode(code) == w
        assert len(code) == len(w)
        assert _encode(-x for x in w) == "".join(chr(ord(c) ^ 1) for c in code)
    for u, cu in zip(words, codes):
        for v, cv in zip(words, codes):
            assert ((len(cu), cu) < (len(cv), cv)) == \
                (shortlex_key(u) < shortlex_key(v))


def _reference_pair_sources(l1, r1, l2, r2):
    n1, n2 = len(l1), len(l2)
    for o in range(1, min(n1, n2)):
        if l1[n1 - o:] == l2[:o]:
            yield r1 + l2[o:], l1[:n1 - o] + r2
    if n2 < n1:
        for i in range(n1 - n2 + 1):
            if l1[i:i + n2] == l2:
                yield r1, l1[:i] + r2 + l1[i + n2:]


def _reference_completion(presentation, max_rules, max_len,
                          equations_per_rule=_EQUATIONS_PER_RULE):
    """Completion as it was before interreduction became incremental:
    every rhs re-normalized after each new rule, heap keys built letter
    by letter, and every rule pair searched for overlaps."""
    ngens = presentation.num_generators
    cancels = _cancellation_rules(ngens)
    table = {}
    maxlhs = 0

    def incomplete():
        return RewriteStatus.INCOMPLETE, tuple(table.items())

    counter = 0
    heap = []

    def push(u, v):
        nonlocal counter
        heapq.heappush(heap, (_old_shortlex_key(u), _old_shortlex_key(v),
                              counter, u, v))
        counter += 1

    for u, v in _seed_rules(presentation):
        push(u, v)

    budget = equations_per_rule * max_rules
    processed = 0
    while heap:
        processed += 1
        if processed > budget:
            return incomplete()
        _, _, _, u, v = heapq.heappop(heap)
        u, v = _reduce(u, table, maxlhs), _reduce(v, table, maxlhs)
        if u == v:
            continue
        lhs, rhs = (u, v) if _old_shortlex_key(u) > _old_shortlex_key(v) \
            else (v, u)
        if len(lhs) > max_len or len(rhs) > max_len:
            return incomplete()
        doomed = [l2 for l2 in table
                  if len(lhs) <= len(l2) and _contains(l2, lhs)]
        for l2 in doomed:
            push(l2, table.pop(l2))
        table[lhs] = rhs
        maxlhs = max(maxlhs, len(lhs))
        table.update({l2: _reduce(r2, table, maxlhs)
                      for l2, r2 in table.items() if l2 != lhs})
        if len(table) > max_rules:
            return incomplete()
        new_rule = (lhs, rhs)
        for other in list(table.items()) + cancels:
            for a, b in _reference_pair_sources(*new_rule, *other):
                push(a, b)
            if other != new_rule:
                for a, b in _reference_pair_sources(*other, *new_rule):
                    push(a, b)
    return RewriteStatus.CONFLUENT, tuple(sorted(table.items()))


@given(small_presentations(), _budgets)
@_with_rhs_renormalized
@settings(max_examples=120, deadline=None)
def test_completion_matches_reference_completion(presentation, budget):
    max_rules, max_len = budget
    rws = knuth_bendix_bounded(presentation, max_rules=max_rules,
                               max_len=max_len)
    assert (rws.status, rws.rules) == _reference_completion(
        presentation, max_rules, max_len)


@given(small_presentations(), _budgets, st.integers(min_value=1, max_value=3))
@settings(max_examples=120, deadline=None)
def test_equation_budget_matches_reference_completion(presentation, budget,
                                                      equations_per_rule):
    # at the default budget per rule no known draw runs out of
    # equations; at 1-3 per rule most draws return there
    max_rules, max_len = budget
    with mock.patch.object(rewriting, "_EQUATIONS_PER_RULE",
                           equations_per_rule):
        rws = knuth_bendix_bounded(presentation, max_rules=max_rules,
                                   max_len=max_len)
    assert (rws.status, rws.rules) == _reference_completion(
        presentation, max_rules, max_len, equations_per_rule)


@st.composite
def tables_with_new_rule(draw):
    """(ngens, rules) as completion holds them when it searches the pairs
    of its newest rule, the last one: freely reduced left-hand sides, none
    inside another, each rhs shorter than its lhs."""
    ngens = draw(st.integers(min_value=1, max_value=2))
    words = draw(st.lists(words_over(ngens, 5).map(free_reduce).filter(len),
                          min_size=1, max_size=8))
    lhss = []
    for w in words:
        if not any(_contains(w, l) or _contains(l, w) for l in lhss):
            lhss.append(w)
    return ngens, [(l, draw(words_over(ngens, len(l) - 1))) for l in lhss]


@given(tables_with_new_rule())
# self-overlaps of length 1 and n - 1
@example((1, [((1, 1, 1), ())]))
# overlaps of length n - 1 with another rule, on either side
@example((2, [((2, 1, 2), (1,)), ((1, 2, 1), (2,))]))
# a 1-letter lhs inside both cancellation pairs of its letter
@example((2, [((2, 1), (1, 2)), ((-1,), (1,))]))
@settings(max_examples=200)
def test_indexed_pairs_match_all_pairs_search(system):
    # the multiset that completion pushes for a new rule: the new rule
    # against itself, every other rule and every cancellation pair, on
    # both sides
    ngens, rules = system
    rules = [(_encode(l), _encode(r)) for l, r in rules]
    new = rules[-1]
    cancels = [(_encode(l), "") for l, _ in _cancellation_rules(ngens)]
    others = rules[:-1] + cancels
    expected = Counter()
    for other in [new] + others:
        expected.update(_reference_pair_sources(*new, *other))
    for other in others:
        expected.update(_reference_pair_sources(*other, *new))
    assert Counter(_RuleTable(rules).critical_pairs(new[0])) == expected


@st.composite
def supplied_rules(draw):
    """(ngens, shortlex-reducing rules), not interreduced, where some
    left-hand sides are proper suffixes of others."""
    ngens = draw(st.integers(min_value=1, max_value=3))
    pairs = draw(st.lists(st.tuples(words_over(ngens, 5), words_over(ngens, 5)),
                          max_size=6))
    rules = {}
    for u, v in pairs:
        if u != v:
            lhs, rhs = (u, v) if shortlex_key(u) > shortlex_key(v) else (v, u)
            rules.setdefault(lhs, rhs)
    for lhs in list(rules):
        if len(lhs) >= 2 and draw(st.booleans()):
            suffix = lhs[draw(st.integers(min_value=1, max_value=len(lhs) - 1)):]
            rules.setdefault(suffix, draw(words_over(ngens, len(suffix) - 1)))
    return ngens, tuple(rules.items())


def _reference_unresolved(ngens, rules):
    """Unresolved critical pairs over every ordered pair of rules and
    cancellation pairs, reduced by the tuple-word reference."""
    table = dict(rules)
    maxlhs = max(map(len, table), default=0)
    working = list(rules) + _cancellation_rules(ngens)
    unresolved = set()
    for l1, r1 in working:
        for l2, r2 in working:
            for u, v in _reference_pair_sources(l1, r1, l2, r2):
                a, b = _reduce(u, table, maxlhs), _reduce(v, table, maxlhs)
                if a != b:
                    unresolved.add((a, b) if shortlex_key(a) > shortlex_key(b)
                                   else (b, a))
    return sorted(unresolved, key=_pair_key)


@given(supplied_rules(), st.lists(words_over(3), max_size=4))
# b a -> a b inside the longer lhs a b a; the longest match must win
@example((2, (((1, 2, 1), ()), ((2, 1), (1, 2)))), [(1, 2, 1), (2, 1, 2, 1)])
# a chain of suffixes: b inside a b inside a a b
@example((2, (((1, 1, 2), (2,)), ((1, 2), (1,)), ((2,), (1,)))), [(1, 1, 2)])
@settings(max_examples=150, deadline=None)
def test_supplied_rules_match_reference(system, words):
    ngens, rules = system
    rws = system_from_rules(ngens, rules)
    unresolved = _reference_unresolved(ngens, rules)
    assert check_local_confluence(rws) == unresolved
    assert rws.confluent == (not unresolved)
    table = dict(rules)
    maxlhs = max(map(len, table), default=0)
    for w in words:
        w = tuple(x for x in w if abs(x) <= ngens)
        assert rws.reduce(w) == _reduce(w, table, maxlhs)
