"""Subpath kernel on rooted labeled trees: suffix-array engine, kernel,
matching-statistics prediction, and benchmarks."""

from .trees import (
    LabelTable,
    Tree,
    TreeParseError,
    parse_corpus,
    parse_tree,
    path_tree,
    random_tree,
    serialize_tree,
    star_tree,
)
from .esa import TreeSuffixArray, build_esa_linear, build_esa_reference
from .kernel import (
    KernelParams,
    MergedTree,
    gram_matrix,
    merge_forest,
    merge_trees,
    merged_esa,
    subpath_kernel,
    subpath_kernel_oracle,
    weight_table,
)
from .predict import (
    MasterIndex,
    MatchStats,
    SupportSet,
    build_master_index,
    load_model,
    matching_statistics,
    predict,
    predict_direct,
    save_model,
)

__all__ = [
    "LabelTable",
    "Tree",
    "TreeParseError",
    "parse_corpus",
    "parse_tree",
    "path_tree",
    "random_tree",
    "serialize_tree",
    "star_tree",
    "TreeSuffixArray",
    "build_esa_linear",
    "build_esa_reference",
    "KernelParams",
    "MergedTree",
    "gram_matrix",
    "merge_forest",
    "merge_trees",
    "merged_esa",
    "subpath_kernel",
    "subpath_kernel_oracle",
    "weight_table",
    "MasterIndex",
    "MatchStats",
    "SupportSet",
    "build_master_index",
    "load_model",
    "matching_statistics",
    "predict",
    "predict_direct",
    "save_model",
]

__version__ = "0.1.0"
