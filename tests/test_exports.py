import ast
import subprocess
import sys
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


def test_importing_the_package_does_not_load_numpy_random():
    # the engine builds its generators on first use; numpy.random loaded at
    # import would add its milliseconds to every start of the package
    src = str(Path(hybridmech.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import hybridmech; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
