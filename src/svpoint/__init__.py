"""SO(3)-equivariant, binarizable scalar-vector networks for point clouds."""

from .errors import CheckpointError, ConfigError, ParameterError, StateError
from .geometry import (PointCloud, Rotation, apply_rotation, batch_graph, neighbor_tables,
                       random_rotation, signed_permutation_rotation, synthesize_shapes)
from .netbuild import (Model, ModelConfig, OpCounter, binarize_plan, build_model,
                       count_block_ops, count_model_ops, extract_initial_features,
                       layout_model, load_checkpoint, save_checkpoint, split_channels)
from .svcore import (LinearParams, NormParams, SVBlockParams, SVFeature, aggregate,
                     invariant_head, invariant_projection, regroup_edges, svblock_forward,
                     vector_mapping)

__version__ = "0.1.0"
