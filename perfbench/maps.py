"""Map fidelity against ground truth, and map equality for the checks."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.metrics import mapping_accuracy
from repro.metrics.hausdorff import mean_isoline_hausdorff

#: Evaluation raster of ``sink.accuracy`` (the library default).
RASTER = 100


def accuracy(field: Any, cmap: Any, levels: Sequence[float]) -> float:
    """``mapping_accuracy`` of ``cmap`` against ``field``'s true bands."""
    return mapping_accuracy(field, cmap, levels, RASTER, RASTER)


def hausdorff(field: Any, cmap: Any, levels: Sequence[float]) -> Optional[float]:
    """Mean isoline Hausdorff distance to marching-squares truth."""
    return mean_isoline_hausdorff(field, cmap, levels)


def fidelity(
    pairs: Sequence[Tuple[Any, Any]], levels: Sequence[float]
) -> Dict[str, float]:
    """Mean accuracy and Hausdorff over ``(true field, map)`` pairs.

    Levels no map and truth share are skipped by the Hausdorff, as in
    ``mean_isoline_hausdorff``; a map with none comparable is left out.
    """
    acc = [accuracy(f, m, levels) for f, m in pairs]
    dist = [d for d in (hausdorff(f, m, levels) for f, m in pairs) if d is not None]
    return {
        "sink.accuracy": sum(acc) / len(acc) if acc else 0.0,
        "sink.hausdorff": sum(dist) / len(dist) if dist else 0.0,
    }


def maps_equal(a: Any, b: Any) -> bool:
    """Same levels, same regions, same loops and the same band raster."""
    if a.levels != b.levels or a.full_levels != b.full_levels:
        return False
    if set(a.regions) != set(b.regions):
        return False
    for v, ra in a.regions.items():
        rb = b.regions[v]
        if ra.reports != rb.reports or ra.regulated_loops != rb.regulated_loops:
            return False
    return bool(
        np.array_equal(a.classify_raster(RASTER, RASTER), b.classify_raster(RASTER, RASTER))
    )
