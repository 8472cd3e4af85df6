"""Heavier module invariants that go beyond the per-operation unit tests."""

import ast
import hashlib
import importlib
import importlib.util
import json
import pkgutil
import random
from pathlib import Path

import ncstar
from ncstar import ncalg as A
from ncstar import presentations as P
from ncstar import verifier as V
from ncstar import cli
from ncstar.cli import RunConfig, run_sweep
from ncstar.ncalg import INCONCLUSIVE, PROVED_ZERO


def test_comultiplication_random_n4_sample():
    """The coproduct check holds for all pairs, regular or not; sample 50 at n=4."""
    config = RunConfig(seed=0, format="json")
    body = run_sweep(4, ("hopf",), config, sample=50)
    assert body["totals"]["tasks"] == 50
    bad = [r for r in body["results"] if r["overall"] != "ProvedZero"]
    assert not bad, bad[:3]


def test_regularization_consistency_all_n_le_3(monkeypatch):
    """Added relations of the regularized sphere either certify at product bound
    4 or stay Inconclusive; they never produce a bogus nonzero verdict.

    Each span holds only the charge blocks of its pair's added relations:
    51,744 rows over the 426 pairs, where the full spans hold 497,020.  Those
    targeted spans keep private blocks: the pass adds no shared block."""
    monkeypatch.setattr(A, "_BLOCKS", {})
    rows, ranks = [], []
    build = V.build_quotient_basis

    def counted(*args, **kwargs):
        span = build(*args, **kwargs)
        rows.append(span.descriptor()["relation_rows"])
        ranks.append(span.rank)
        return span
    monkeypatch.setattr(V, "build_quotient_basis", counted)
    inconclusive_pairs = 0
    checked = 0
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for pair in P.enumerate_pairs(n):
            if P.is_regular(pair).is_regular:
                continue
            report = V.verify_regularization_consistency(pair)
            digest.update(json.dumps(report.to_json_dict(include_timings=False)).encode())
            checked += 1
            assert report.checks, f"{pair.compact()}: regularize changed nothing?"
            statuses = {c.certificate.status for c in report.checks}
            assert statuses <= {PROVED_ZERO, INCONCLUSIVE}, pair.compact()
            if INCONCLUSIVE in statuses:
                inconclusive_pairs += 1
    assert checked > 400  # 1 + 11 + 414 non-regular pairs at n = 1, 2, 3
    # the conclusive cases exist (mostly forced normality) and so do the open ones
    assert 0 < inconclusive_pairs < checked
    assert digest.hexdigest() == "7ad7510c9d08857d5dbe06f2f116f59cf861815c89b5a65e98c15203b074ba05"
    assert (len(rows), sum(rows)) == (checked, 51_744)
    assert sum(ranks) == 43_397
    assert A._BLOCKS == {}


def _regularization_pass(pairs, monkeypatch) -> list:
    """(report, relation rows, rank) of each pair's regularization check, in order."""
    out, built = [], []
    build = V.build_quotient_basis

    def counted(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]
    with monkeypatch.context() as m:
        m.setattr(V, "build_quotient_basis", counted)
        for pair in pairs:
            report = V.verify_regularization_consistency(pair)
            (span,) = built
            built.clear()
            out.append((json.dumps(report.to_json_dict(include_timings=False)),
                        span.descriptor()["relation_rows"], span.rank))
    return out


def _table_rows():
    """Every (roster, key) of the row tables, with its row count."""
    return {(roster, key): len(factors) // 2 for roster, codes in A._CODES.items()
            for key, (_, factors) in codes.row_table.items()}


def test_replayed_rows_give_the_reports_of_made_ones(monkeypatch):
    """The 426 regularization checks, from a fresh table and then in reverse,
    when every span replays rows other spans made, give the same reports,
    row counts and ranks; so does provenance membership, whose combinations
    name each row's m1 and m2 from the table."""
    monkeypatch.setattr(A, "_CODES", {})
    pairs = [pair for n in (1, 2, 3) for pair in P.enumerate_pairs(n) if not P.is_regular(pair).is_regular]
    cold = _regularization_pass(pairs, monkeypatch)
    made = _table_rows()
    # the 51,744 rows the spans insert are these 9,815 distinct ones
    assert (len(made), sum(made.values())) == (719, 9_815)
    warm = _regularization_pass(pairs[::-1], monkeypatch)[::-1]
    assert _table_rows() == made
    assert warm == cold
    digest = hashlib.sha256()
    for report, _, _ in warm:
        digest.update(report.encode())
    assert digest.hexdigest() == "7ad7510c9d08857d5dbe06f2f116f59cf861815c89b5a65e98c15203b074ba05"
    assert (sum(rows for _, rows, _ in warm), sum(rank for _, _, rank in warm)) == (51_744, 43_397)
    queries = []
    for pair in pairs[:12] + random.Random(30).sample(pairs[12:], 12):
        base = P.sphere_presentation(pair)
        base_keys = {r.keys[0] for r in base.all_relations()}
        sphere = P.sphere_presentation(P.regularize(pair))
        queries += [(base, rel.poly) for rel in sphere.all_relations() if rel.keys[0] not in base_keys]
    warm_certs = [A.ideal_membership_bounded(p, base, V.REGULARIZATION_BOUND) for base, p in queries]
    # each query replays only rows the checks above made
    assert _table_rows() == made
    for (base, p), cert in zip(queries, warm_certs):
        monkeypatch.setattr(A, "_CODES", {})
        assert cert == A.ideal_membership_bounded(p, base, V.REGULARIZATION_BOUND)
    assert sum(cert.status == PROVED_ZERO for cert in warm_certs) > 10


def test_only_builds_without_shared_blocks_fill_the_row_table(monkeypatch, empty_tables):
    """A bound-2 sweep takes shared blocks and makes no row-table entry.  A
    full bound-3 build makes one entry per relation, keyed by no charge set;
    a second such build of the presentation replays them, makes no new
    entry, and has the descriptor of the first and of a build on a fresh table."""
    monkeypatch.setattr(A, "_CODES", {})
    assert run_sweep(2, cli.SWEEP_TARGETS, RunConfig(jobs=1))["overall_passed"]
    assert A._CODES and not _table_rows()
    pair = P.validate_pair([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    assert V.verify_comultiplication(pair, 3, None).overall == PROVED_ZERO
    pres = P.unitary_qg_presentation(pair)
    first = A.BoundedSpan(pres, 3)
    made = _table_rows()
    assert len(made) == len(list(A._star_closed_relations(pres)))
    assert {key[0] for _, key in made} == {None} and {key[2] for _, key in made} == {3}
    second = A.BoundedSpan(pres, 3)
    assert _table_rows() == made
    monkeypatch.setattr(A, "_CODES", {})
    fresh = A.BoundedSpan(pres, 3)
    assert second.descriptor() == first.descriptor() == fresh.descriptor()
    assert second.descriptor()["relation_rows"] == sum(made.values())


def test_sweep_reports_n2_n3_are_pinned():
    """Every n = 2, 3 sweep report, byte for byte, in task order.

    Once with no orbit table, so every task is reduced, and once with one
    fresh table, so 432 of the 618 n = 3 tasks are carried.
    """
    for orbits in (None, {}):
        digest = hashlib.sha256()
        tasks, keys = 0, {}
        for n in (2, 3):
            for target, pair_dict, bound in cli.sweep_tasks(n, cli.SWEEP_TARGETS, RunConfig()):
                report = cli._TARGETS[target].run(P.pair_from_json_dict(pair_dict), bound, orbits)
                digest.update(json.dumps(report.to_json_dict(include_timings=False)).encode())
                tasks += 1
            keys[n] = len(orbits or ())
        assert tasks == 641
        assert digest.hexdigest() == "29b14a2f9ab0407ffe549769b1922f152273ac7f88c8337d7f9e75edfc345d10"
    # the carried run reduced one n = 3 task per key
    assert keys[3] - keys[2] == 618 - 432


def test_sweep_reports_n2_above_bound_2_are_pinned():
    """Every n = 2 sweep report at bounds 3 and 4, reduced and carried.

    Above bound 2 a relation inserts more than one row, so a carried
    report's descriptors show whether its key's record holds the row counts
    its reduced task measured.
    """
    for orbits in (None, {}):
        digest = hashlib.sha256()
        for bound in (3, 4):
            for target, pair_dict, _ in cli.sweep_tasks(2, cli.SWEEP_TARGETS, RunConfig(degree_bound=bound)):
                report = cli._TARGETS[target].run(P.pair_from_json_dict(pair_dict), bound, orbits)
                digest.update(json.dumps(report.to_json_dict(include_timings=False)).encode())
        assert digest.hexdigest() == "5d6a57e0780fa2b54bb19485e9fa1a79fc5db2dc46e88ee7dc95cdd9bdd77b6d"
    # 38 keys for 46 tasks: the carried run carried 8 of them
    assert len(orbits) == 38


def test_sweep_results_independent_of_job_count():
    config1 = RunConfig(jobs=1, format="json")
    config2 = RunConfig(jobs=2, format="json")
    body1 = run_sweep(2, ("hopf", "tuple-action"), config1)
    body2 = run_sweep(2, ("hopf", "tuple-action"), config2)
    assert body1 == body2
    # most of these tasks are carried within their orbit, each worker by its own table
    body1 = run_sweep(3, ("hopf", "sphere-action"), config1, sample=100)
    body2 = run_sweep(3, ("hopf", "sphere-action"), config2, sample=100)
    assert body1 == body2


def test_every_all_entry_resolves():
    """A name deleted from a module must leave its __all__ too."""
    modules = [importlib.import_module(f"ncstar.{m.name}") for m in pkgutil.iter_modules(ncstar.__path__)]
    exported = [mod for mod in modules if hasattr(mod, "__all__")]
    assert {mod.__name__ for mod in exported} >= {"ncstar.ncalg", "ncstar.presentations",
                                                  "ncstar.repmodels", "ncstar.scalars",
                                                  "ncstar.verifier"}
    for mod in exported:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}"
        exec(f"from {mod.__name__} import *", {})


def test_benchmark_tracer_names_stay_bound():
    """perfbench/tracer.py wraps package functions by name; each must still exist.

    Loading the tracer reads every traced name, and assert_clean() checks that
    each is its original object and that verifier and ncalg share
    apply_tensor_hom, so a rename fails here instead of in every benchmark run.
    """
    _load_tracer().assert_clean()


def test_benchmark_reduce_hook_reads_cold_checks(empty_tables):
    """The tracer's reduce hook unpacks (tensor, left span, right span) from the
    positional arguments of `is_zero_tensor`; cold coproduct and sphere-action
    checks of one n = 2 pair must reach it, once per image built."""
    tracing = _load_tracer()
    pair = P.validate_pair([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    tracer = tracing.Tracer()
    with tracer:
        V.verify_comultiplication(pair, 2, None)
        V.verify_sphere_action(pair, "both", 2, None)
    tracing.assert_clean()
    metrics = tracer.layer_metrics()
    assert metrics["span.calls"] == 3
    assert metrics["hom.calls"] == metrics["reduce.calls"] > 0
    assert metrics["reduce.errors"] == 0


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_counts_what_it_reads_of_a_tensor(empty_tables):
    """The tracer reads len(tensor.terms) and key[0], key[1] of each term key.

    These are its hom and reduce counters over cold coproduct and
    sphere-action checks of the n = 2 pairs, as measured when tensors were
    still keyed by words, so a tensor format that hands the tracer other
    counts fails here and not only in a benchmark run.
    """
    tracing = _load_tracer()
    orbits = {}
    tracer = tracing.Tracer()
    with tracer:
        for pair in P.enumerate_pairs(2):
            V.verify_comultiplication(pair, orbits=orbits)
            V.verify_sphere_action(pair, orbits=orbits)
    tracing.assert_clean()
    metrics = tracer.layer_metrics()
    assert metrics["hom.tensor_terms"] == 380
    assert metrics["reduce.word_queries"] == 4968
    # 694 of the queried words are distinct per span
    assert metrics["reduce.residue_hit_ratio"] == 1 - 694 / 4968


def _references_outside_own_definition(tree) -> set:
    """Every name a module reads, by bare name or as an attribute, except where
    the name is read inside a top-level definition of that same name."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name is not None and name != owner:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        visit(node, owner)
    return found


def test_every_exported_name_has_a_caller():
    """No package API exists only for tests: each name in the __all__ of ncalg,
    presentations, repmodels, scalars and verifier is read somewhere in the
    package outside its own definition, or by the benchmark harness."""
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "ncstar").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    referenced = set()
    for path in sources:
        referenced |= _references_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    for module in ("ncalg", "presentations", "repmodels", "scalars", "verifier"):
        mod = importlib.import_module(f"ncstar.{module}")
        unread = [name for name in mod.__all__ if name not in referenced]
        assert not unread, f"ncstar.{module}.__all__ names {unread}, which only tests read"
