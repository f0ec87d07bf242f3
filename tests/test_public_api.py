"""The package namespace is the README's library tour: ``nca`` exports the
names of the tour's code block and of its module table, plus the three
errors and ``__version__``, and each documented name resolves."""
import inspect
import re
from pathlib import Path

import nca

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented():
    """The ``nca.<name>`` calls of the tour's code block and the names in the
    contents column of its module table, dotted ones as written."""
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = tour.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bnca\.(\w+)", code))
    for row in tour.split("\n"):
        if row.startswith("| `nca."):
            names.update(re.findall(r"`([A-Za-z_][\w.]*)`", row.split("|")[2]))
    return names


def test_exports_are_the_documented_names():
    public = {name for name, value in vars(nca).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    want = {name.split(".")[0] for name in _documented()}
    want |= {"DisconnectedError", "InputError", "PropertyViolationError"}
    assert public == want
    assert nca.__version__


def test_each_documented_name_resolves():
    missing = []
    for name in sorted(_documented()):
        target = nca
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert missing == []
