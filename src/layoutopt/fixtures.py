"""Access to the bundled example scenes."""

from __future__ import annotations

from importlib import resources

from .errors import MissingEntityError
from .scene_model import SceneSpec, parse_scene

FIXTURE_NAMES = (
    "dining_set",
    "bookstore_rows",
    "star_unit",
    "conflict_pair",
    "mixed_ten",
)


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise MissingEntityError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return (
        resources.files("layoutopt") / "scenes" / f"{name}.json"
    ).read_text(encoding="utf-8")


def load_fixture(name: str) -> SceneSpec:
    return parse_scene(fixture_text(name))
