"""Spatial index substrate: the packed STR R-tree and a Fenwick tree."""

from .fenwick import FenwickTree
from .rtree import FlatRTree, STRLevel, str_levels

__all__ = ["FlatRTree", "STRLevel", "str_levels", "FenwickTree"]
