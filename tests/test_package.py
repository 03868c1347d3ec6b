"""The package's public surface: __all__ and the imports of __init__.py agree."""

import ast
import inspect

import robintri


def test_all_lists_exactly_the_imported_public_names():
    """__init__.py keeps its import list and __all__ by hand; a name in one
    but not the other, or listed twice, fails here."""
    tree = ast.parse(inspect.getsource(robintri))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names]
    public = sorted(name for name in imported
                    if not name.startswith("_")
                    and not inspect.ismodule(getattr(robintri, name)))
    assert len(set(robintri.__all__)) == len(robintri.__all__)
    assert sorted(set(robintri.__all__) - {"__version__"}) == public
