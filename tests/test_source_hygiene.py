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


def _definitions(tree: ast.Module) -> set[str]:
    """Module-level names a module defines with ``def``, ``class`` or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _unread(trees: dict, definitions: dict) -> list[str]:
    """``module:name`` for each defined name that no module in ``trees`` reads."""
    read = set()
    for tree in trees.values():
        read |= _referenced_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(f"{module}:{name}" for module, names in definitions.items() for name in names - read)


def _src_trees() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def test_every_module_level_private_name_is_read_in_src():
    # A private helper, class or constant that no module of the package
    # reads is dead code; tests and the benchmark do not count as readers.
    trees = _src_trees()
    private = {
        module: {name for name in _definitions(tree) if name.startswith("_") and not name.startswith("__")}
        for module, tree in trees.items()
    }
    assert _unread(trees, private) == []


# Public names that no module of the package reads, each kept on purpose.
INPUTS = {
    "channels.py:unitary_channel",  # a documented channel input
    "channels.py:depolarizing_channel",  # a documented channel input
    "channels.py:amplitude_damping_channel",  # a documented channel input
    "ensembles.py:classical_correlate",  # criterion 11's incoherent state, for the dephasing sweep
    "estimators.py:eigenstate_factor_exact",  # the exact two-copy factor criterion 11 grades against
    "core.py:pauli_on",  # the benchmark's dense observables, until it builds them from factors
}


def test_every_public_name_is_read_in_src():
    # A public function, class or constant serves a CLI run, a claim or
    # another module, or is a named input; the export table does not count
    # as a reader, and neither do tests or the benchmark.
    trees = _src_trees()
    public = {module: {n for n in _definitions(tree) if not n.startswith("_")} for module, tree in trees.items()}
    del trees["__init__.py"]
    unread = set(_unread(trees, public))
    assert sorted(unread - INPUTS) == []
    assert sorted(INPUTS - unread) == []  # an input that gained a reader leaves the list


# Public members that no module of the package reads, each kept on purpose.
MEMBER_INPUTS = {
    "channels.py:QuantumChannel.unitarity",  # the Choi-purity reference unitarity_estimate is graded against
    "ensembles.py:EnsembleSpec.declared_rank",  # the declared rank an oracle-free protocol will read
}


def test_every_public_member_is_read_in_src():
    # A public method or property of a src/ class is read as an attribute by
    # some module other than __init__.py, or is a named input.  The check is
    # by name alone: a member whose name another class's member shares (to_json,
    # apply) counts as read when either is, so such a member needs its own look.
    trees = _src_trees()
    members = {
        f"{module}:{node.name}.{item.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    }
    del trees["__init__.py"]
    read = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(m for m in members if m.rpartition(".")[2] not in read) == sorted(MEMBER_INPUTS)


# Every keyword-only parameter in src/, as module:function:parameter.  A new
# option fails here until it is added on purpose.
KEYWORD_ONLY = {
    "crypto.py:run_verification:client_shots",
    "estimators.py:oracle_identity_check:t",
    "estimators.py:oracle_identity_check:pair",
    "estimators.py:oracle_identity_check:nA",
    "estimators.py:_two_stage:spectral",
    "estimators.py:_two_stage:joint",
    "estimators.py:_two_stage:observable",
    "estimators.py:_two_stage:terms",
    "estimators.py:_two_stage:power",
    "estimators.py:estimate_qfi:min_eigenvalue",
    "estimators.py:estimate_qfi:min_gap",
}


def test_keyword_only_parameters_are_pinned():
    found = {
        f"{module}:{node.name}:{arg.arg}"
        for module, tree in _src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.kwonlyargs
    }
    assert sorted(found) == sorted(KEYWORD_ONLY)


# The functions that draw outcomes or resample counts.  Every other shot
# goes through measure_in_basis, so a new sampling path fails here until
# it is routed through that choke point or named on purpose.
SAMPLING_SITES = {
    "crypto.py:run_blind_estimation",
    "measurement.py:_rm_purity_estimates",
    "measurement.py:bootstrap_stderr",
    "measurement.py:measure_in_basis",
}
SAMPLERS = {"binomial", "choice", "multinomial", "random"}


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
