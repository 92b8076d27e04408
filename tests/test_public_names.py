"""Guard: every public name in ``repro.*`` has exactly one defining module.

Packages re-export their submodules' names, so one name appearing in many
``__all__`` lists is fine -- as long as every appearance is the *same*
object.  Two modules each defining their own ``DetectorRegistry`` is what
this catches.
"""

import importlib
import pkgutil
from collections import defaultdict

import repro


def test_every_exported_name_is_defined_by_exactly_one_module():
    defined_in = defaultdict(set)
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith("__main__")
    ]
    assert len(modules) > 50
    for module in modules:
        for name in getattr(module, "__all__", ()):
            home = getattr(getattr(module, name), "__module__", None)
            if home is not None:        # constants and submodules have none
                defined_in[name].add(home)
    clashes = {name: sorted(homes) for name, homes in defined_in.items()
               if len(homes) > 1}
    assert clashes == {}
