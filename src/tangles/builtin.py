"""Bundled schemas used by the verification suite and the CLI."""

from __future__ import annotations

from importlib import resources

from .schema import SchemaGraph, parse_schema

SUITE = ("ray", "dray", "star", "spider", "comb", "cliq")
EXTRAS = ("fan", "ladder", "twostars", "twohub")

_cache: dict[str, SchemaGraph] = {}


def builtin_names() -> tuple[str, ...]:
    return SUITE + EXTRAS


def schema_text(name: str) -> str:
    if name not in builtin_names():
        raise ValueError(f"unknown builtin schema {name!r}")
    return (resources.files("tangles") / "schemas" / f"{name}.schema").read_text()


def load(name: str) -> SchemaGraph:
    if name not in _cache:
        _cache[name] = parse_schema(schema_text(name))
    return _cache[name]
