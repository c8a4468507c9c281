"""SO(3)-equivariant, binarizable scalar-vector networks for point clouds."""

from .errors import CheckpointError, ConfigError, ParameterError, StateError
from .geometry import (KnnGraph, PointCloud, Rotation, apply_rotation,
                       extract_initial_features, knn_graphs, random_rotation,
                       signed_permutation_rotation, synthesize_shapes)
from .netbuild import (Model, ModelConfig, OpCounter, binarize_plan,
                       build_model, count_block_ops, count_model_ops,
                       load_checkpoint, save_checkpoint, split_channels)
from .svcore import (BlockToggles, LinearParams, NormParams, SVBlockParams,
                     SVFeature, aggregate, coordinate_frame, equivariant_norm,
                     invariant_head, invariant_projection, regroup_edges,
                     reweighting_factors, scalar_update, svblock_forward,
                     vector_mapping, vector_update)

__version__ = "0.1.0"
