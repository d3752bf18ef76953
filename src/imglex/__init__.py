"""imglex: multilingual word embeddings learned from query-image relevance data.

A bag-of-words query tower and an image tower (a small MLP over precomputed
image features, or a trainable per-image vector) are trained jointly so the
cosine similarity of matching pairs beats in-batch alternatives under a
softmax loss. Includes vocabulary construction with OOV hash buckets, a
hand-derived backward pass with Adagrad updates, a synthetic corpus
generator, and an evaluation harness (crosslingual/monolingual word
similarity, document classification).
"""

from imglex.errors import ConfigError, DataError, EvalError, ImglexError, TrainingDiverged

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "EvalError",
    "ImglexError",
    "TrainingDiverged",
    "__version__",
]
