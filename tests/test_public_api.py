import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import irreplab

MODULES = [
    importlib.import_module(f"irreplab.{info.name}")
    for info in pkgutil.iter_modules(irreplab.__path__)
]
EXPORTING = [mod for mod in MODULES if hasattr(mod, "__all__")]


@pytest.mark.parametrize("mod", EXPORTING, ids=lambda mod: mod.__name__)
def test_module_exports_resolve_to_the_package_objects(mod):
    for name in mod.__all__:
        assert getattr(irreplab, name) is getattr(mod, name), name


def test_package_exports_are_the_module_union():
    union = {name for mod in EXPORTING for name in mod.__all__}
    expected = union | {"InvalidInputError", "NumericFailureError", "__version__"}
    assert len(irreplab.__all__) == len(set(irreplab.__all__))
    assert set(irreplab.__all__) == expected
    assert all(hasattr(irreplab, name) for name in irreplab.__all__)


def test_package_exports_stay_few():
    # ratchet: lower the bound as names leave, never raise it
    assert len(irreplab.__all__) <= 28


def test_every_export_has_a_caller():
    # an export that only the tests use belongs in the tests: each one is
    # read as code (a name or an attribute, not a docstring or an export
    # list) by another library module or by a demo
    root = pathlib.Path(irreplab.__file__).resolve().parent
    sources = [path for path in root.glob("*.py") if path.name != "__init__.py"]
    sources += sorted((root.parent.parent / "demos").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(irreplab.__all__) - used - {"__version__"}) == []


def test_benchmark_tracer_finds_what_it_patches():
    # perfbench's tracer patches library names from outside; one that left
    # the library would fail it only under `pytest perfbench`
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from irreplab import irreps, rng

    def methods():
        return rng.SubStream.normals, irreps.IrrepBlockSpec.combination

    before = methods()
    t = tracer.Tracer()
    t.install()
    try:
        patched = methods()
    finally:
        t.uninstall()
    assert patched[0] is not before[0] and patched[1] is not before[1]
    assert methods() == before


def test_benchmark_references_run(monkeypatch):
    # the benchmark checks each workload's counts against an in-process
    # reference that calls the library directly, with paths relative to
    # the checkout root; a library change that breaks one would fail it
    # only when the benchmark runs
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(root)
    references = [w.reference for w in workloads.WORKLOADS.values() if w.reference]
    assert references
    for reference in references:
        counts = reference(11, 3)
        assert type(counts) is list and all(type(c) is int for c in counts) and sum(counts) == 3


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(irreplab.__all__) <= set(dir(irreplab))
    with pytest.raises(AttributeError, match="no_such_name"):
        irreplab.no_such_name


def test_one_rule_per_argument_kind():
    # an integer is read by operator.index, and a scale tested as a
    # numbers.Real, in errors.py alone; every other module calls its rule
    source = {path.name: path.read_text(encoding="utf-8")
              for path in pathlib.Path(irreplab.__file__).parent.glob("*.py")}
    for token in ("operator.index", "numbers.Real", "def _check_index", "def _check_scale"):
        assert [name for name, text in source.items() if token in text] == ["errors.py"], token


def test_every_eigensolver_call_maps_lapack_failure():
    # exit 3 on a numeric failure, never a traceback: each eigh or eigvalsh
    # call sits in the body of a try that catches np.linalg.LinAlgError,
    # and each Cholesky call in such a try or under the errstate that
    # makes a failed factor NaN
    sites, factors = [], []
    for path in sorted(pathlib.Path(irreplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guarded, quiet = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Try) and any(
                    "np.linalg.LinAlgError" in map(ast.unparse, getattr(h.type, "elts", [h.type]))
                    for h in node.handlers if h.type is not None):
                guarded.update(id(n) for stmt in node.body for n in ast.walk(stmt))
            if isinstance(node, ast.With) and any(
                    ast.unparse(item.context_expr) == "np.errstate(invalid='ignore')"
                    for item in node.items):
                quiet.update(id(n) for stmt in node.body for n in ast.walk(stmt))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        sites += [(path.name, node.lineno, id(node) in guarded) for node in calls
                  if ast.unparse(node.func) in ("np.linalg.eigh", "np.linalg.eigvalsh")]
        factors += [(path.name, node.lineno, id(node) in guarded | quiet) for node in calls
                    if "cholesky" in ast.unparse(node.func)]
    assert len(sites) == 3 and all(ok for _, _, ok in sites), sites
    assert len(factors) == 1 and all(ok for _, _, ok in factors), factors
