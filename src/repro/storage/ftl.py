"""Flash translation layer: logical-to-physical page mapping.

The FTL runs on the SSD's embedded cores and translates logical page
numbers (LPN) into physical page numbers (PPN).  Wear leveling scatters
logically sequential pages across channels/ways; we model the page-level
mapping as a seeded Feistel-network bijection (a format-preserving
permutation), which gives realistic channel spread without materializing a
multi-hundred-million-entry table.  Updates (page rewrites) go to fresh
physical pages through a small remap dictionary, as a page-mapped FTL
would.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import StorageError

__all__ = ["FlashTranslationLayer"]

_ROUNDS = 4


def _feistel_permute(
    values: np.ndarray, bits: int, keys: np.ndarray
) -> np.ndarray:
    """Balanced Feistel permutation over the domain [0, 2**bits).

    ``bits`` must be even so both halves have equal width, which makes the
    classic ``L, R = R, L ^ F(R)`` rounds an exact bijection regardless of
    the round function.
    """
    half = bits // 2
    mask = (1 << half) - 1
    left = (values >> half) & mask
    right = values & mask
    for key in keys:
        # Simple multiplicative round function; exact bijectivity comes
        # from the Feistel structure, not from the round function.
        f = ((right * 0x9E3779B1 + key) >> 5) & mask
        left, right = right, (left ^ f) & mask
    return (left << half) | right


class FlashTranslationLayer:
    """Page-level L2P mapping with O(1) memory."""

    def __init__(self, total_pages: int, seed: int = 0):
        if total_pages <= 0:
            raise StorageError("total_pages must be positive")
        self.total_pages = total_pages
        bits = 2
        while (1 << bits) < total_pages:
            bits += 1
        if bits % 2:
            bits += 1  # balanced Feistel needs an even bit count
        self._bits = bits
        rng = np.random.default_rng(seed)
        self._keys = rng.integers(
            1, 2 ** 31 - 1, size=_ROUNDS, dtype=np.int64
        )
        self._remap: Dict[int, int] = {}
        self._remap_keys = None   # sorted-key cache for batch lookups
        self._remap_vals = None
        self._next_fresh = total_pages  # grows into the spare area
        self.translations = 0

    def translate(self, lpns: np.ndarray) -> np.ndarray:
        """Vectorized LPN -> PPN translation (cycle-walking Feistel)."""
        lpns = np.asarray(lpns, dtype=np.int64)
        out = self.permute(lpns)
        if self._remap:
            out = self._apply_remap(lpns, out)
        return out

    def permute(self, lpns: np.ndarray) -> np.ndarray:
        """The wear-leveling bijection alone (no rewrite remapping)."""
        lpns = np.asarray(lpns, dtype=np.int64)
        if lpns.size and (lpns.min() < 0 or lpns.max() >= self.total_pages):
            raise StorageError("logical page number out of range")
        self.translations += int(lpns.size)
        out = _feistel_permute(lpns, self._bits, self._keys)
        # Cycle-walk values that landed outside [0, total_pages).
        bad = out >= self.total_pages
        guard = 0
        while np.any(bad):
            out = out.copy()
            out[bad] = _feistel_permute(out[bad], self._bits, self._keys)
            bad = out >= self.total_pages
            guard += 1
            if guard > 64:
                raise StorageError("FTL cycle walking did not converge")
        return out

    def _apply_remap(
        self, lpns: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Apply page rewrites to a translated batch, vectorized.

        The remap table is tiny (out-of-place updates in a read-dominated
        model), so a sorted-key lookup beats a per-LPN dict probe.
        """
        if self._remap_keys is None:
            keys = np.fromiter(
                self._remap.keys(), dtype=np.int64, count=len(self._remap)
            )
            order = np.argsort(keys)
            self._remap_keys = keys[order]
            self._remap_vals = np.fromiter(
                self._remap.values(), dtype=np.int64, count=len(self._remap)
            )[order]
        flat_lpns = lpns.ravel()
        pos = np.searchsorted(self._remap_keys, flat_lpns)
        pos[pos == self._remap_keys.size] = 0
        remapped = self._remap_keys[pos] == flat_lpns
        if remapped.any():
            flat = out.reshape(-1)
            flat[remapped] = self._remap_vals[pos[remapped]]
        return out

    def translate_one(self, lpn: int) -> int:
        return int(self.translate(np.array([lpn]))[0])

    def rewrite(self, lpn: int) -> int:
        """Point ``lpn`` at a fresh physical page (out-of-place update)."""
        if not 0 <= lpn < self.total_pages:
            raise StorageError("logical page number out of range")
        ppn = self._next_fresh
        self._next_fresh += 1
        self._remap[lpn] = ppn
        self._remap_keys = self._remap_vals = None
        return ppn

    def is_bijective_over(self, sample: int = 4096) -> bool:
        """Spot-check: a sample of LPNs maps to distinct PPNs."""
        n = min(sample, self.total_pages)
        lpns = np.linspace(
            0, self.total_pages - 1, num=n, dtype=np.int64
        )
        ppns = self.translate(lpns)
        return np.unique(ppns).size == n
