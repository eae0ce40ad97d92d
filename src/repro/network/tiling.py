"""Spatial tiles for the collection transport (the million-node path).

The deployment is partitioned into a regular grid of square tiles and
``EpochTransport(tiling=...)`` draws each tree level's fault outcomes
one *sender* tile at a time, so the draw kernel's intermediates are
bounded by the largest tile's frames instead of the whole level's.
Each directed edge is owned exclusively by its sender, so the per-edge
frame cursors and burst-chain checkpoints partition cleanly across
tiles, and because every draw is addressed by ``(edge, frame, attempt)``
(counter-based streams, :mod:`repro.network.rngstream`) the outcomes
are bit-identical to one global draw at any tile size.  An untiled
transport is the one-tile case of the same resolver.  Everything
order-sensitive -- the Mersenne payload-damage stream, receiver
dispatch, charge scatter-adds -- runs after the draws, in global frame
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np


@dataclass(frozen=True)
class TileGrid:
    """A regular grid of square tiles over a bounding box.

    Tile ``(tx, ty)`` covers ``[xmin + tx*s, xmin + (tx+1)*s) x [ymin +
    ty*s, ymin + (ty+1)*s)``; the last row/column absorbs any remainder
    up to the box edge.  A point exactly on an interior tile line
    belongs to the *higher* tile (half-open cells); a point exactly on
    the box's far edge clamps into the last tile.
    """

    xmin: float
    ymin: float
    tile_size: float
    nx: int
    ny: int

    @staticmethod
    def for_bounds(bounds: Any, tile_size: float) -> "TileGrid":
        if tile_size <= 0:
            raise ValueError("tile size must be positive")
        nx = max(1, int(np.ceil((bounds.xmax - bounds.xmin) / tile_size)))
        ny = max(1, int(np.ceil((bounds.ymax - bounds.ymin) / tile_size)))
        return TileGrid(
            xmin=bounds.xmin, ymin=bounds.ymin, tile_size=tile_size, nx=nx, ny=ny
        )

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    def tile_coords(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point ``(tx, ty)`` grid coordinates (vectorized)."""
        s = self.tile_size
        tx = np.floor((pts[:, 0] - self.xmin) / s).astype(np.int64)
        ty = np.floor((pts[:, 1] - self.ymin) / s).astype(np.int64)
        np.clip(tx, 0, self.nx - 1, out=tx)
        np.clip(ty, 0, self.ny - 1, out=ty)
        return tx, ty

    def tile_of(self, pts: np.ndarray) -> np.ndarray:
        """Per-point flat tile id ``ty * nx + tx``."""
        tx, ty = self.tile_coords(pts)
        return ty * np.int64(self.nx) + tx


@dataclass(frozen=True)
class TilePartition:
    """A deployment's node-to-tile assignment: ``tile_id[node]``."""

    grid: TileGrid
    tile_id: np.ndarray  # (n,) node -> flat tile id

    @staticmethod
    def build(
        positions: np.ndarray, bounds: Any, tile_size: float
    ) -> "TilePartition":
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        grid = TileGrid.for_bounds(bounds, tile_size)
        return TilePartition(grid=grid, tile_id=grid.tile_of(pts))
