"""Heavier module invariants that go beyond the per-operation unit tests."""

import ast
import hashlib
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import ncstar
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


def test_regularization_consistency_all_n_le_3():
    """Added relations of the regularized sphere either certify at product bound
    4 or stay Inconclusive; they never produce a bogus nonzero verdict."""
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


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_counts_what_it_reads_of_a_tensor(monkeypatch):
    """The tracer reads len(tensor.terms) and key[0], key[1] of each term key.

    These are its hom and reduce counters over cold coproduct and
    sphere-action checks of the n = 2 pairs, as measured when tensors were
    still keyed by words, so a tensor format that hands the tracer other
    counts fails here and not only in a benchmark run.
    """
    tracing = _load_tracer()
    monkeypatch.setattr(V, "_IMAGE_CACHE", {})
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
