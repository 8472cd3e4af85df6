"""Permutation orbits: one reduction per orbit key, carried to every task with the same relabeled rows."""

import collections
import itertools
import random

import pytest

from ncstar import cli, ncalg
from ncstar import presentations as P
from ncstar import verifier as V
from ncstar.ncalg import INCONCLUSIVE, Certificate, Letter, Poly

OFF2 = [[0, 1], [1, 0]]


def _permuted(m, sigma):
    """m relabeled by sigma: entry (sigma[i], sigma[j]) is entry (i, j) of m."""
    n = len(m)
    inverse = sorted(range(n), key=sigma.__getitem__)
    return tuple(tuple(m[inverse[a]][inverse[b]] for b in range(n)) for a in range(n))


def _flat(matrices):
    return tuple(x for m in matrices for row in m for x in row)


def _is_canonical(pair):
    return V._canonical((pair.epsilon, pair.eta))[0] == _flat((pair.epsilon, pair.eta))


@pytest.fixture
def orbits(monkeypatch):
    """An empty orbit table for the test, and a counter of the reductions made."""
    table = {}
    reduced = []
    real = V.is_zero_tensor

    def counted(t, left, right):
        reduced.append(t)
        return real(t, left, right)
    monkeypatch.setattr(V, "is_zero_tensor", counted)
    return table, reduced


def _direct(run, *args):
    """The report of one task reduced on its own, with no orbit table."""
    return run(*args, orbits=None).to_json_dict(include_timings=False)


def _counted_builds(monkeypatch):
    """A list that records the presentation of each span the verifier builds."""
    built = []
    real = V.build_quotient_basis

    def counted(pres, bound):
        built.append(pres)
        return real(pres, bound)
    monkeypatch.setattr(V, "build_quotient_basis", counted)
    return built


# ---------------------------------------------------------------------------
# the canonical form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_form_is_the_same_for_every_relabeling(n):
    for pair in P.enumerate_pairs(n):
        matrices = (pair.epsilon, pair.eta)
        canonical, sigma = V._canonical(matrices)
        assert _flat(_permuted(m, sigma) for m in matrices) == canonical
        for tau in itertools.permutations(range(n)):
            relabeled = tuple(_permuted(m, tau) for m in matrices)
            assert V._canonical(relabeled)[0] == canonical, (pair.compact(), tau)


def _least_relabeling(matrices):
    """The reference canonical form: every sigma's whole relabeling, the first least one kept."""
    images = [(_flat(_permuted(m, sigma) for m in matrices), sigma)
              for sigma in itertools.permutations(range(len(matrices[0])))]
    least = min(image for image, _ in images)
    return least, next(sigma for image, sigma in images if image == least)


def test_canonical_form_matches_the_reference():
    sample = random.Random(4).sample(P.enumerate_pairs(4), 300)
    identity = tuple(range(4))
    # pairs that a sigma other than the identity fixes: their least relabeling has ties
    symmetric = [p for p in sample if any(
        _permuted(p.epsilon, tau) == p.epsilon and _permuted(p.eta, tau) == p.eta
        for tau in itertools.permutations(range(4)) if tau != identity)]
    assert len(symmetric) >= 10
    for pair in [p for n in (1, 2, 3) for p in P.enumerate_pairs(n)] + sample:
        for matrices in ((pair.epsilon, pair.eta), (pair.epsilon,)):
            assert V._canonical(matrices) == _least_relabeling(matrices), pair.compact()


@pytest.mark.parametrize("n,counts", [(2, (12, 5, 2)), (3, (120, 29, 4))])
def test_orbit_counts(n, counts):
    pairs = P.enumerate_pairs(n)
    regular = [p for p in pairs if P.is_regular(p).is_regular]
    assert (len({V._canonical((p.epsilon, p.eta))[0] for p in pairs}),
            len({V._canonical((p.epsilon, p.eta))[0] for p in regular}),
            len({V._canonical((p.epsilon,))[0] for p in pairs})) == counts


# ---------------------------------------------------------------------------
# orbit rows
# ---------------------------------------------------------------------------

def _walked_rows(pres, sigma, ids):
    """The rows of pres under sigma by a plain walk: per family, and over the whole presentation.

    ids keeps each relabeled row's id by (term key, sigma) across calls.
    """
    def walk(entries):
        rows = []
        for _, poly, key in entries:
            if (key, sigma) not in ids:
                ids[key, sigma] = V._row_id(poly, sigma)
            rows.append(ids[key, sigma])
        return sorted(rows)
    return (tuple(tuple(walk(ncalg._star_closed(f.relations))) for f in pres.families),
            walk(ncalg._star_closed_relations(pres)))


def _edited(pres, index, edit):
    """pres with edit(relations) as the relations of its family at index; the sums stay last."""
    families = list(pres.families)
    families[index] = P.RelationFamily(tuple(edit(families[index].relations)))
    return pres._replace(families=tuple(families))


def _presentations(n):
    for pair in P.enumerate_pairs(n):
        yield P.sphere_presentation(pair)
        yield P.unitary_qg_presentation(pair)
    for eps in sorted({pair.epsilon for pair in P.enumerate_pairs(n)}):
        yield P.orthogonal_qg_presentation(eps)
        yield P.tuple_space_presentation(eps)
    # and edited ones: a relation dropped, one added, and the order reversed
    pres = P.unitary_qg_presentation(P.enumerate_pairs(n)[-1])
    extra = P.Relation("extra", Poly.from_word((Letter("u", 1, 1), Letter("u", 1, n))))
    for edit in (lambda rels: rels[1:], lambda rels: rels + (extra,), lambda rels: rels[::-1]):
        yield _edited(pres, 0, edit)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_rows_merge_to_the_walked_rows(n, monkeypatch):
    """Each family's rows are its own walked rows; merged, they are the whole
    presentation's, so no star-closed polynomial lies in two families."""
    monkeypatch.setattr(V, "_FAMILY_ROWS", {})
    ids = {}
    for pres in _presentations(n):
        for sigma in itertools.permutations(range(n)):
            by_family, whole = _walked_rows(pres, sigma, ids)
            rows = V._rows(pres, sigma)
            assert rows == by_family, (pres.label, sigma)
            assert sorted(itertools.chain.from_iterable(rows)) == whole, (pres.label, sigma)
    assert V._FAMILY_ROWS


def test_n4_hopf_sample_keys_are_pinned():
    """No tier-1 sweep reaches n = 4, so a key that split orbits there would
    go unseen: 600 sampled coproduct tasks have 555 keys, made without
    reducing anything, and merging each key's family rows joins none."""
    tasks = cli.sweep_tasks(4, ["hopf"], cli.RunConfig(), 600)
    keys, merged = set(), set()
    for _, data, bound in tasks:
        pair = P.pair_from_json_dict(data)
        canonical, sigma = V._canonical((pair.epsilon, pair.eta))
        rows = V._rows(V.unitary_qg_presentation(pair), sigma)
        keys.add((bound, canonical, rows))
        merged.add((bound, canonical, tuple(sorted(itertools.chain.from_iterable(rows)))))
    assert len(tasks) == 600 and len(keys) == len(merged) == 555


# ---------------------------------------------------------------------------
# carried reports equal direct ones
# ---------------------------------------------------------------------------

def test_shuffled_n3_sweep_equals_direct_reports(orbits, monkeypatch):
    """The first member seen is often not the canonical one; no report may tell."""
    table, reduced = orbits
    built = _counted_builds(monkeypatch)
    tasks = cli.sweep_tasks(3, cli.SWEEP_TARGETS, cli.RunConfig())
    random.Random(5).shuffle(tasks)
    runs = [(cli._TARGETS[target].run, P.pair_from_json_dict(d), bound) for target, d, bound in tasks]
    reports, carried = [], 0
    for run, pair, bound in runs:
        before = len(built)
        reports.append(run(pair, bound, table).to_json_dict(include_timings=False))
        carried += len(built) == before
    # 138 + 44 + 4 keys: an orbit whose relations match only up to span splits
    assert collections.Counter(key[0] for key in table) == {"hopf": 138, "sphere": 44, "tuple": 4}
    assert carried == 618 - len(table) == 432
    assert len(built) == 138 + 2 * 44 + 2 * 4 == 234
    # a second pass finds every key: it builds no span and reduces no image
    del built[:], reduced[:]
    for run, pair, bound in runs:
        run(pair, bound, table)
    assert not built and not reduced
    for (run, pair, bound), report in zip(runs, reports):
        assert report == _direct(run, pair, bound), pair.compact()


def test_a_member_with_a_dropped_relation_is_reduced_directly(orbits, monkeypatch):
    table, reduced = orbits
    first = P.validate_pair(OFF2, [[0, 0], [0, 1]])
    member = P.validate_pair(OFF2, [[1, 0], [0, 0]])  # first, with the indices swapped
    assert _is_canonical(first) and not _is_canonical(member)
    real = P.unitary_qg_presentation

    def dropping(pair):
        pres = real(pair)
        if pair != member:
            return pres
        edited = _edited(pres, 0, lambda rels: tuple(r for r in rels if r.rid != "Reps-xcol(1,1;1,2)"))
        assert len(edited.all_relations()) == len(pres.all_relations()) - 1
        return edited
    monkeypatch.setattr(V, "unitary_qg_presentation", dropping)
    direct = _direct(V.verify_comultiplication, member)
    # without the relation the member does not certify, so a carried report would differ
    assert direct["overall"] == INCONCLUSIVE

    V.verify_comultiplication(first, orbits=table)
    assert len(table) == 1
    del reduced[:]
    assert V.verify_comultiplication(member, orbits=table).to_json_dict(include_timings=False) == direct
    assert reduced


def test_a_member_with_an_added_relation_is_reduced_directly(orbits, monkeypatch):
    """Every relation of the first member lies in this member's span, but the span is larger."""
    table, reduced = orbits
    first = P.validate_pair(OFF2, [[0, 0], [0, 1]])
    member = P.validate_pair(OFF2, [[1, 0], [0, 0]])
    real = P.unitary_qg_presentation
    extra = P.Relation("extra", Poly.from_word((Letter("u", 1, 1), Letter("u", 1, 2))))

    def adding(pair):
        pres = real(pair)
        return _edited(pres, -2, lambda rels: rels + (extra,)) if pair == member else pres
    monkeypatch.setattr(V, "unitary_qg_presentation", adding)
    direct = _direct(V.verify_comultiplication, member)
    V.verify_comultiplication(first, orbits=table)
    del reduced[:]
    assert V.verify_comultiplication(member, orbits=table).to_json_dict(include_timings=False) == direct
    assert reduced


def test_an_inconclusive_first_member_passes_nothing_on(orbits, monkeypatch):
    table, reduced = orbits
    first = P.validate_pair(OFF2, [[0, 0], [0, 1]])
    member = P.validate_pair(OFF2, [[1, 0], [0, 0]])
    counted = V.is_zero_tensor
    calls = []

    def one_inconclusive(t, left, right):
        calls.append(t)
        if len(calls) == 1:
            return Certificate(INCONCLUSIVE, detail="patched")
        return counted(t, left, right)
    monkeypatch.setattr(V, "is_zero_tensor", one_inconclusive)
    assert V.verify_comultiplication(first, orbits=table).overall == INCONCLUSIVE
    assert table == {}
    monkeypatch.setattr(V, "is_zero_tensor", counted)
    del reduced[:]
    report = V.verify_comultiplication(member, orbits=table).to_json_dict(include_timings=False)
    assert reduced  # reduced directly, as the orbit's first ProvedZero member
    assert report == _direct(V.verify_comultiplication, member)


def test_a_record_serves_only_its_own_sides(orbits):
    table, reduced = orbits
    zero = [[0] * 3 for _ in range(3)]
    first = P.validate_pair(zero, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    member = P.validate_pair(zero, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert P.is_regular(first).is_regular and P.is_regular(member).is_regular
    direct = _direct(V.verify_sphere_action, member, "both")
    V.verify_sphere_action(first, "alpha", orbits=table)
    del reduced[:]
    # the alpha record says nothing of beta: the member is reduced, and recorded
    report = V.verify_sphere_action(member, "both", orbits=table)
    assert report.to_json_dict(include_timings=False) == direct
    assert reduced and len(table) == 2
    del reduced[:]
    V.verify_sphere_action(first, "both", orbits=table)
    assert not reduced


@pytest.mark.parametrize("bound", [3, 4])
def test_reports_above_bound_2_equal_direct_ones(orbits, monkeypatch, bound):
    """Equal rows give relabeled spans at every bound, so carrying needs no bound gate."""
    table, reduced = orbits
    built = _counted_builds(monkeypatch)
    tasks = cli.sweep_tasks(2, cli.SWEEP_TARGETS, cli.RunConfig())
    runs = [(cli._TARGETS[target].run, P.pair_from_json_dict(d)) for target, d, _ in tasks]
    # a warm table: every bound-2 key is recorded, and none of them serves this bound
    for run, pair in runs:
        run(pair, 2, table)
    warm = len(table)
    random.Random(bound).shuffle(runs)
    del built[:]
    reports = [run(pair, bound, table).to_json_dict(include_timings=False) for run, pair in runs]
    assert len(table) - warm == 19 and all(key[2] == bound for key in list(table)[warm:])
    # 30 span builds without the table: 16 coproduct tasks, 5 sphere and 2 tuple actions
    assert len(built) == 26
    del built[:], reduced[:]
    for run, pair in runs:
        run(pair, bound, table)
    assert not built and not reduced
    for (run, pair), report in zip(runs, reports):
        assert report == _direct(run, pair, bound), pair.compact()


def test_two_n3_orbits_at_bound_3_equal_direct_reports(orbits, monkeypatch):
    """The eta_12 = 1 orbit, whose tie-split members get two keys, and the epsilon_12 = 1 orbit."""
    table, reduced = orbits
    built = _counted_builds(monkeypatch)
    zero = [[0] * 3 for _ in range(3)]
    one_12 = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    orbit_keys = {V._canonical((zero, one_12))[0], V._canonical((one_12, zero))[0]}
    members = [p for p in P.enumerate_pairs(3) if V._canonical((p.epsilon, p.eta))[0] in orbit_keys]
    assert len(members) == 6
    runs = [(cli._TARGETS[target].run, pair) for pair in members for target in ("hopf", "sphere-action")]
    random.Random(3).shuffle(runs)
    reports = [run(pair, 3, table).to_json_dict(include_timings=False) for run, pair in runs]
    # 12 tasks and 18 span builds without the table
    assert len(table) == 6 and all(key[2] == 3 for key in table)
    assert len(built) == 9
    for (run, pair), report in zip(runs, reports):
        assert report == _direct(run, pair, 3), pair.compact()


def test_an_orbit_mate_whose_ties_differ_gets_its_own_key(orbits):
    """colprod-tie anchors at the first free index k0, which no relabeling moves along."""
    table, reduced = orbits
    zero = [[0] * 3 for _ in range(3)]
    first = P.validate_pair(zero, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    mate = P.validate_pair(zero, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert V._canonical((first.epsilon, first.eta))[0] == V._canonical((mate.epsilon, mate.eta))[0]
    direct = _direct(V.verify_comultiplication, mate)
    V.verify_comultiplication(first, orbits=table)
    del reduced[:]
    assert V.verify_comultiplication(mate, orbits=table).to_json_dict(include_timings=False) == direct
    assert reduced and len(table) == 2


def test_a_member_matching_up_to_sign_gets_its_own_key(orbits, monkeypatch):
    """Minus a relation adds rows to the member's span, and a key counts each relation."""
    table, reduced = orbits
    first = P.validate_pair(OFF2, [[0, 0], [0, 1]])
    member = P.validate_pair(OFF2, [[1, 0], [0, 0]])
    real = P.unitary_qg_presentation

    def negating(pair):
        pres = real(pair)
        if pair != member:
            return pres
        negated = P.Relation("negated", -pres.relations[0].poly)
        return _edited(pres, -2, lambda rels: rels + (negated,))
    monkeypatch.setattr(V, "unitary_qg_presentation", negating)
    direct = _direct(V.verify_comultiplication, member)
    V.verify_comultiplication(first, orbits=table)
    del reduced[:]
    report = V.verify_comultiplication(member, orbits=table).to_json_dict(include_timings=False)
    assert reduced and report == direct
    assert len(table) == 2
    span = V.build_quotient_basis(negating(member), 2).descriptor()
    assert span["relation_rows"] > V.build_quotient_basis(real(member), 2).descriptor()["relation_rows"]
    for check in report["checks"]:
        assert check["evidence"]["zero_evidence"]["left_basis"] == span, check["relation"]


@pytest.mark.parametrize("bound", [2, 3])
def test_a_degree_0_relation_is_carried(orbits, monkeypatch, bound):
    """It gives its span more rows than one; the carried descriptor shows the recorded count."""
    table, reduced = orbits
    first = P.validate_pair(OFF2, [[0, 0], [0, 1]])
    member = P.validate_pair(OFF2, [[1, 0], [0, 0]])
    real = P.unitary_qg_presentation
    one = P.Relation("one", Poly.one())

    def with_one(pair):
        pres = real(pair)
        return _edited(pres, -2, lambda rels: rels + (one,))
    monkeypatch.setattr(V, "unitary_qg_presentation", with_one)
    direct = _direct(V.verify_comultiplication, member, bound)
    assert direct["overall"] == "ProvedZero"  # every word of degree <= bound lies in the span
    V.verify_comultiplication(first, bound, orbits=table)
    assert len(table) == 1
    del reduced[:]
    report = V.verify_comultiplication(member, bound, orbits=table).to_json_dict(include_timings=False)
    assert not reduced and report == direct
    span = V.build_quotient_basis(with_one(member), bound).descriptor()
    assert span["relation_rows"] > len(list(ncalg._star_closed_relations(with_one(member))))
    for check in report["checks"]:
        assert check["evidence"]["zero_evidence"]["left_basis"] == span, check["relation"]


def test_a_warm_carried_task_builds_nothing(orbits, monkeypatch, empty_tables):
    """Once a pass has carried it, a task pays for its key and its checks alone."""
    table, reduced = orbits
    tasks = cli.sweep_tasks(2, cli.SWEEP_TARGETS, cli.RunConfig())
    runs = [(cli._TARGETS[target].run, P.pair_from_json_dict(d), bound) for target, d, bound in tasks]
    for run, pair, bound in runs:
        run(pair, bound, table)
    made = []

    def counting(name):
        real = getattr(V, name)
        monkeypatch.setattr(V, name, lambda *args, **kwargs: made.append(name) or real(*args, **kwargs))
    for name in ("apply_tensor_hom", "is_zero_tensor", "build_quotient_basis", "Letter", "_row_id"):
        counting(name)
    pooled = (len(P._POOL), len(V._COACTIONS), len(V._FAMILY_ROWS), len(V._IMAGE_CACHE),
              len(V._CHECK_ROWS))
    del reduced[:]
    reports = [run(pair, bound, table) for run, pair, bound in runs]
    assert made == [] and not reduced
    assert (len(P._POOL), len(V._COACTIONS), len(V._FAMILY_ROWS), len(V._IMAGE_CACHE),
            len(V._CHECK_ROWS)) == pooled
    assert all(report.passed for report in reports)
    # a carried check reduces nothing, so it states no time
    assert all(check.micros == 0 for report in reports for check in report.checks)
