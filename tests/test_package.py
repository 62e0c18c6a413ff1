"""The package's export list matches what it imports."""

from types import ModuleType

import ifdma


def test_all_is_sorted_unique_and_lists_every_public_name():
    names = ifdma.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {name for name, obj in vars(ifdma).items()
              if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert set(names) == public
