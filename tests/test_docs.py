"""README.md names only what src/cqms defines.

A backticked span of the README can name code three ways: ``module.name``
with ``module`` one of the package's modules, a ``_private`` name, or an
``UPPER_CASE`` constant.  Each must resolve: the first as an attribute of
that module, the other two as a name defined or imported at the top level
of some module of the package.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "cqms").glob("*.py") if p.stem != "__init__")

QUALIFIED = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.(\w+)")
PRIVATE = re.compile(r"(?<![\w.])_[a-z]\w+")
CONSTANT = re.compile(r"(?<![\w.])[A-Z]{2,}[A-Z0-9]*(?:_[A-Z0-9]+)+(?!\w)")


def _references() -> tuple[set, set]:
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    qualified, bare = set(), set()
    for span in spans:
        qualified.update(QUALIFIED.findall(span))
        bare.update(PRIVATE.findall(span) + CONSTANT.findall(span))
    return qualified, bare


def test_every_backticked_reference_in_the_readme_resolves():
    modules = {name: importlib.import_module(f"cqms.{name}") for name in MODULES}
    qualified, bare = _references()
    assert qualified and bare                   # the patterns still find the README's references
    missing = [f"{module}.{name}" for module, name in sorted(qualified)
               if not hasattr(modules[module], name)]
    missing += [name for name in sorted(bare)
                if not any(hasattr(module, name) for module in modules.values())]
    assert not missing, f"README.md names what src/cqms does not define: {missing}"
