"""The package namespace: kcert.__all__ is the public API the README lists."""

import re
from pathlib import Path

import kcert

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_resolves_and_matches_the_readme():
    for name in kcert.__all__:
        assert getattr(kcert, name) is not None, name
    section = README.read_text(encoding="utf-8").split("### Public API", 1)[1]
    bullets = section[section.index("\n- "):].split("\n#", 1)[0]
    listed = re.findall(r"`([^`]+)`", bullets)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(kcert.__all__)
