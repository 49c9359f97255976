"""The README's module map names every module, and every name it cites exists.

The contracts live in the docstrings; the map only points at them. So
the map must not lose a module, and a dotted name in backticks whose
head is a module of the package (`fe.decrypt`, `fedquad.protocol.run_training`)
must still import.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import fedquad

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {m.name for m in pkgutil.iter_modules(fedquad.__path__)} - {"__main__"}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _module_map() -> str:
    start = README.find("\n## Module map\n")
    assert start >= 0, "README.md has no Module map section"
    return README[start:README.index("\n## ", start + 1)]


def _cited_names() -> set[str]:
    """Every backticked dotted name outside code blocks, without a leading "fedquad."."""
    prose = re.sub(r"^```.*?^```", "", README, flags=re.S | re.M)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        if DOTTED.fullmatch(span):
            names.add(span.removeprefix("fedquad."))
    return names


def _map_entries() -> dict[str, str]:
    """Each entry's module and its text, up to the next entry."""
    parts = re.split(r"^- `fedquad\.(\w+)`", _module_map(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_every_module_has_a_map_entry():
    assert set(_map_entries()) == MODULES


def test_every_name_an_entry_cites_is_in_its_module():
    for module, text in _map_entries().items():
        target = importlib.import_module(f"fedquad.{module}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", text):
            assert hasattr(target, name), f"the fedquad.{module} entry cites `{name}`"


def test_every_cited_package_name_resolves():
    cited = sorted(n for n in _cited_names() if n.split(".")[0] in MODULES)
    assert cited  # the map cites names such as fe.decrypt
    for name in cited:
        head, *attributes = name.split(".")
        target = importlib.import_module(f"fedquad.{head}")
        for attribute in attributes:
            assert hasattr(target, attribute), f"README cites `{name}`, which does not resolve"
            target = getattr(target, attribute)
