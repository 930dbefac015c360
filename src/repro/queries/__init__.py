"""Privacy-aware query processing (Section 6 of the paper).

The two novel query types:

* private query over public data — :mod:`~repro.queries.private_range`,
  :mod:`~repro.queries.private_nn`;
* public query over private data — :mod:`~repro.queries.public_range`,
  :mod:`~repro.queries.public_nn`;

plus probabilistic answer formats and continuous (incremental) variants.
"""

from repro.queries.continuous import (
    ContinuousCountMonitor,
    ContinuousPrivateRange,
    RangeDelta,
)
from repro.queries.continuous_nn import ContinuousPrivateNN
from repro.queries.private_knn import (
    PrivateKNNResult,
    exact_knn_answer,
    private_knn_query,
    refine_knn_candidates,
)
from repro.queries.private_nn import (
    PrivateNNResult,
    exact_nn_answer,
    nn_probabilities,
    private_nn_query,
    pruning_radius,
    refine_nn_candidates,
)
from repro.queries.private_range import (
    PrivateRangeResult,
    exact_range_answer,
    private_range_query,
    refine_range_candidates,
)
from repro.queries.probabilistic import (
    CountAnswer,
    NearestAnswer,
    poisson_binomial_pmf,
)
from repro.queries.public_knn import (
    PublicKNNResult,
    estimate_knn_probabilities,
    exact_knn_users,
    knn_candidate_users,
    public_knn_query,
)
from repro.queries.public_nn import (
    PublicNNResult,
    certain_nn_user,
    estimate_nn_probabilities,
    exact_nn_user,
    nn_candidate_users,
    public_nn_query,
)
from repro.queries.public_range import (
    exact_range_count,
    membership_probability,
    naive_range_count,
    public_range_count,
)
from repro.queries.spec import (
    NATIVE_KINDS,
    CountSpec,
    KNNSpec,
    NNSpec,
    QuerySpec,
    RangeSpec,
    dump_specs,
    is_user_bound,
    load_specs,
    native_kind,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "PrivateRangeResult",
    "private_range_query",
    "refine_range_candidates",
    "exact_range_answer",
    "PrivateKNNResult",
    "private_knn_query",
    "refine_knn_candidates",
    "exact_knn_answer",
    "PrivateNNResult",
    "private_nn_query",
    "pruning_radius",
    "nn_probabilities",
    "refine_nn_candidates",
    "exact_nn_answer",
    "CountAnswer",
    "NearestAnswer",
    "poisson_binomial_pmf",
    "membership_probability",
    "public_range_count",
    "naive_range_count",
    "exact_range_count",
    "PublicNNResult",
    "public_nn_query",
    "nn_candidate_users",
    "certain_nn_user",
    "estimate_nn_probabilities",
    "exact_nn_user",
    "ContinuousCountMonitor",
    "ContinuousPrivateRange",
    "ContinuousPrivateNN",
    "RangeDelta",
    "PublicKNNResult",
    "public_knn_query",
    "knn_candidate_users",
    "estimate_knn_probabilities",
    "exact_knn_users",
    "QuerySpec",
    "RangeSpec",
    "NNSpec",
    "KNNSpec",
    "CountSpec",
    "is_user_bound",
    "native_kind",
    "NATIVE_KINDS",
    "spec_to_dict",
    "spec_from_dict",
    "dump_specs",
    "load_specs",
]
