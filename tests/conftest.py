"""Shared cached builders so repeated tests do not re-enumerate root data."""

from functools import lru_cache

from sktflow import (
    Normalization,
    SimpleType,
    build_root_system,
    structure_constants,
)


def parse_token(token: str) -> SimpleType:
    return SimpleType.parse(token)


@lru_cache(maxsize=None)
def system(token: str, norm: str = "long2"):
    return build_root_system(parse_token(token), Normalization.parse(norm))


@lru_cache(maxsize=None)
def constants(token: str, norm: str = "long2"):
    return structure_constants(system(token, norm))
