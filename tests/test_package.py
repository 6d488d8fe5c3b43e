import ast
import sys
from pathlib import Path

import latcover


def test_every_exported_name_resolves():
    assert len(set(latcover.__all__)) == len(latcover.__all__)
    for name in latcover.__all__:
        assert hasattr(latcover, name), name
    namespace = {}
    exec("from latcover import *", namespace)
    assert set(latcover.__all__) <= namespace.keys()


def test_package_imports_only_the_standard_library():
    # Relative imports (level > 0) stay inside the package; every
    # absolute one must name a standard-library module.
    sources = sorted(Path(latcover.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)
