"""Every public name and method in ``src/repro`` has a caller outside tests.

An AST scan of ``src/repro`` lists the public (no leading underscore)
module-level functions and classes, and the public methods of those
classes (properties are attributes, not methods, and are left out).
Each must be referred to by code in ``src/repro`` outside its own
definition, in ``benchmarks/`` or in ``examples/``. A reference is a
name or an attribute access, matched by the bare name (so
``obj.describe()`` counts for every method called ``describe``); an
``import ... as alias`` counts through its alias. Package ``__init__``
re-exports (the imports and ``__all__``) are not references, and tests
are not callers. A name used only by code elsewhere in its own module is
used: the module runs it.

A name with no caller must be on :data:`ALLOWED` (a method on
:data:`ALLOWED_METHODS`) with a one-line reason, and an entry whose
name gained a caller or no longer exists fails too, so the lists can
only shrink with the code.

Two checks keep the import surface honest as names go: every
``__all__`` in ``src/repro`` lists only attributes its module has, and
the fault types have one import path, ``repro.faults``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "benchmarks", ROOT / "examples")

#: Public names kept without a caller outside tests, each with its reason.
ALLOWED = {
    "fv.reference.TextbookFv": "big-integer oracle of the RNS FV engine",
    "fv.reference.decrypt_with_noise_bigint":
        "big-integer oracle of RNS decryption",
    "nttmath.ntt.intt_iterative": "textbook oracle of the batched inverse NTT",
    "hw.block_pipeline.simulate_block_pipeline":
        "stepped oracle of the block-pipeline closed form",
    "rns.lift.hps_quotient":
        "Fig. 6 Block 3 quotient the limb path is tested against",
    "parallel.executors.executor_fallbacks":
        "benchmarks/ledger/probes.py resolves it by name",
}

#: Public methods kept without a caller outside tests, each with its
#: reason.
ALLOWED_METHODS = {
    "fv.reference.TextbookRelinKey.key_bytes":
        "big-integer oracle of the relinearisation key size",
    "fv.reference.TextbookFv.ciphertext_from_rns":
        "moves an engine ciphertext into the big-integer oracle",
    "hw.ntt_unit.DualCoreNttUnit.run_strict":
        "stepped oracle of the NTT unit's fast executor",
}


def _modules_with_all() -> list[str]:
    """Dotted names of the ``src/repro`` modules that assign ``__all__``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in node.targets)
               for node in tree.body):
            parts = path.relative_to(PACKAGE).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.append(".".join(("repro",) + parts))
    return found


def _references(tree: ast.AST) -> Counter:
    """How often each name is read under ``tree`` (names and attribute
    accesses; an imported alias counts for the name it imports)."""
    aliases: dict[str, str] = {}
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            aliases.update((a.asname, a.name) for a in node.names
                           if a.asname)
    for alias, name in aliases.items():
        refs[name] += refs[alias]
    return refs


def _is_property(node: ast.FunctionDef) -> bool:
    """A ``@property``, ``@cached_property`` or ``@x.setter`` method."""
    for decorator in node.decorator_list:
        name = (decorator.id if isinstance(decorator, ast.Name)
                else getattr(decorator, "attr", None))
        if name in ("property", "cached_property", "setter", "deleter"):
            return True
    return False


def _unused_public_names() -> tuple[set[str], set[str]]:
    """Dotted names of the public module-level names and of the public
    methods that nothing outside tests refers to."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.rglob("*.py"))}
    refs = {path: _references(tree) for path, tree in modules.items()}
    external: Counter = Counter()
    for directory in CALLER_DIRS:
        for path in directory.rglob("*.py"):
            external += _references(ast.parse(path.read_text()))

    def used(path: Path, node: ast.AST) -> bool:
        name = node.name
        # Reads inside the definition itself (recursion, its own type
        # in an annotation) are not uses.
        inside = sum(isinstance(n, ast.Name) and n.id == name
                     or isinstance(n, ast.Attribute) and n.attr == name
                     for n in ast.walk(node))
        return (external[name] > 0
                or refs[path][name] > inside
                or any(counts[name] for other, counts in refs.items()
                       if other != path))

    names, methods = set(), set()
    for path, tree in modules.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not used(path, node):
                names.add(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_")
                        and not _is_property(method)
                        and not used(path, method)):
                    methods.add(f"{module}.{node.name}.{method.name}")
    return names, methods


def test_every_public_name_has_a_caller_or_a_reason():
    unused, _ = _unused_public_names()
    assert sorted(unused - ALLOWED.keys()) == [], (
        "public names only tests reach: delete them, give them a caller, "
        "or add them to ALLOWED with a reason"
    )
    assert sorted(ALLOWED.keys() - unused) == [], (
        "ALLOWED entries that now have a caller or no longer exist"
    )


def test_every_public_method_has_a_caller_or_a_reason():
    _, unused = _unused_public_names()
    assert sorted(unused - ALLOWED_METHODS.keys()) == [], (
        "public methods only tests reach: delete them, give them a "
        "caller, or add them to ALLOWED_METHODS with a reason"
    )
    assert sorted(ALLOWED_METHODS.keys() - unused) == [], (
        "ALLOWED_METHODS entries that now have a caller or no longer exist"
    )


def test_every_allowed_name_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert all(reason.strip()
               for reason in ALLOWED_METHODS.values())


@pytest.mark.parametrize("module", _modules_with_all())
def test_all_lists_only_names_the_module_has(module):
    """A stale ``__all__`` entry breaks ``from module import *``."""
    imported = importlib.import_module(module)
    names = list(imported.__all__)
    assert [n for n in names if not hasattr(imported, n)] == []
    assert len(set(names)) == len(names)


def test_fault_names_have_one_import_path():
    import repro.cluster
    import repro.faults

    names = ("FailureReport", "FaultEvent", "FaultKind", "FaultPlan",
             "RetryPolicy")
    assert set(names) <= set(repro.faults.__all__)
    assert [n for n in names if hasattr(repro.cluster, n)] == []
