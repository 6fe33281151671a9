"""Online serving layer: batched, cached plan-cost inference.

See :mod:`repro.serving.service` for the architecture overview and
``docs/PERFORMANCE.md`` for cache keying, benchmark instructions, and
measured speedups.
"""

from repro.serving.cache import EncodingCache, LRUCache, PredictionCache
from repro.serving.fingerprint import plan_fingerprint
from repro.serving.service import CostInferenceService

__all__ = [
    "CostInferenceService",
    "EncodingCache",
    "PredictionCache",
    "LRUCache",
    "plan_fingerprint",
]
