"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "puriscope"


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [node.returns, *(a.annotation for a in arguments)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _referenced_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = {name for node in imports for name in _bound_names(node)}
    assert sorted(bound - _referenced_names(tree)) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names a module defines: ``_function``, ``_Class``, ``_CONSTANT``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_module_level_private_name_is_read_in_src():
    # A private helper, class or constant that no module of the package
    # reads is dead code; tests and the benchmark do not count as readers.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= _referenced_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = sorted(f"{module}:{name}" for module, tree in trees.items() for name in _private_definitions(tree) - read)
    assert unread == []


# The functions that draw outcomes or resample counts.  Every other shot
# goes through measure_in_basis, so a new sampling path fails here until
# it is routed through that choke point or named on purpose.
SAMPLING_SITES = {
    "crypto.py:run_blind_estimation",
    "measurement.py:_rm_purity_estimates",
    "measurement.py:bootstrap_stderr",
    "measurement.py:measure_in_basis",
}
SAMPLERS = {"binomial", "choice", "multinomial"}


class _SamplerCalls(ast.NodeVisitor):
    """Records the innermost function (or ``<module>``) around each sampler call."""

    def __init__(self):
        self.scope, self.sites = ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr in SAMPLERS:
            self.sites.add(self.scope[-1])
        self.generic_visit(node)


def test_sampling_calls_stay_at_the_measurement_choke_point():
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _SamplerCalls()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites |= {f"{path.name}:{name}" for name in visitor.sites}
    assert sites == SAMPLING_SITES
