"""The package's export list."""

from __future__ import annotations

import types

import permap


def test_all_lists_exactly_the_public_names() -> None:
    # a helper moved out of the package leaves no stale export behind, and
    # a new public name is not left unlisted
    public = {name for name, value in vars(permap).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(permap.__all__) == len(set(permap.__all__))
    assert set(permap.__all__) == public | {"__version__"}
