import ast
from pathlib import Path

import hybridmech


def test_all_lists_exactly_the_names_bound_in_init():
    # a name removed from a module must leave __all__ and the imports too
    namespace = {}
    exec("from hybridmech import *", namespace)
    assert set(hybridmech.__all__) <= set(namespace)
    tree = ast.parse(Path(hybridmech.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    bound.discard("__all__")
    assert sorted(hybridmech.__all__) == sorted(bound)
