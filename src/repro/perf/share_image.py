"""Rotation-bucketed memoization of Feldman share images.

A Feldman commitment ``(g^{a_0}, ..., g^{a_t})`` is evaluated at many
points over its lifetime: every zero-dealing is checked at the receiver's
own index, and every partial signature is checked by every node at the
emitter's index against the session's combined commitment
``C_QUAL = Π_{d∈QUAL} C_d`` and the key commitment.  The image
``g^{f(x)} = Π elements[k]^{x^k}`` is a pure function of
``(group, elements, x)``, so outcomes are memoized under that exact key.
One combined vector per signing session keeps the live working set at
about one bucket per concurrent session (plus the key commitment), well
inside ``max_buckets``; evaluating each dealer's commitment separately
would need ``sessions × |QUAL|`` buckets and thrash the LRU from n = 25.

Entries are grouped into one *bucket per commitment* (the rotation
bucket: a refreshed key has a new commitment vector and therefore a new
bucket).  :meth:`ShareImageCache.invalidate` drops a superseded
commitment's whole bucket in O(1) —
:meth:`repro.pds.keys.PdsNodeState.install_share` calls it whenever a
refresh replaces the key commitment, so a pre-refresh image (or a
pre-refresh fixed-base window, see below) can never be consulted for a
post-refresh key.  As with the verification cache, this is hygiene on
top of exactness: the bucket key pins the exact element vector, so a
stale bucket is unreachable by construction; invalidation keeps the
cache from carrying dead weight (and dead window tables) across units.

For groups large enough that fixed-base windows engage (at least
:data:`repro.crypto.group.FIXED_BASE_MIN_BITS` bits — never the toy
64-bit test group), each bucket also lazily builds one
:class:`~repro.perf.fixed_base.FixedBaseWindow` per commitment element,
so commitment evaluation at a fresh ``x`` costs table lookups instead of
full ``pow`` calls.  The windows live *inside* the rotation bucket and
die with it.

Everything here is transcript-neutral: the computed value is exactly
``Π pow(elements[k], x^k mod q, p)`` with or without the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.perf.config import perf_config, register_cache_clearer
from repro.perf.fixed_base import FixedBaseWindow

__all__ = [
    "ShareImageCache",
    "share_image_cache",
    "share_image_value",
    "invalidate_share_images",
]


def _plain_image(group, elements: Sequence[int], x: int) -> int:
    """The reference evaluation ``Π elements[k]^{x^k}`` (no caching)."""
    acc = group.identity
    power_of_x = 1
    q = group.q
    for element in elements:
        acc = group.multiply(acc, group.power(element, power_of_x))
        power_of_x = (power_of_x * x) % q
    return acc


class _Bucket:
    """Images (and optional per-element windows) of one commitment."""

    __slots__ = ("images", "windows")

    def __init__(self) -> None:
        self.images: dict[int, int] = {}
        self.windows: list[FixedBaseWindow] | None = None


class ShareImageCache:
    """Bucketed LRU of share-image evaluations, one bucket per commitment.

    The outer key is ``(p, elements)`` — the group modulus plus the exact
    commitment vector — so distinct groups and distinct (even
    adversarially crafted) commitments can never share entries.
    ``max_buckets`` bounds live commitments (LRU eviction);
    ``max_entries_per_bucket`` bounds each bucket's evaluated points
    (protocols evaluate at most ``n`` indices per commitment, far below
    the bound).
    """

    def __init__(self, max_buckets: int = 512, max_entries_per_bucket: int = 4096) -> None:
        self.max_buckets = max_buckets
        self.max_entries_per_bucket = max_entries_per_bucket
        self._buckets: OrderedDict[tuple, _Bucket] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def image(self, group, elements: tuple[int, ...], x: int) -> int:
        key = (group.p, elements)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
            while len(self._buckets) > self.max_buckets:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(key)
        cached = bucket.images.get(x)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = self._compute(group, elements, x, bucket)
        bucket.images[x] = value
        while len(bucket.images) > self.max_entries_per_bucket:
            bucket.images.pop(next(iter(bucket.images)))
        return value

    def _compute(self, group, elements: tuple[int, ...], x: int, bucket: _Bucket) -> int:
        if not group.windows_enabled():
            return _plain_image(group, elements, x)
        if bucket.windows is None:
            bucket.windows = [
                FixedBaseWindow(element, group.p, group.q) for element in elements
            ]
        acc = group.identity
        power_of_x = 1
        q = group.q
        for window in bucket.windows:
            acc = group.multiply(acc, window.pow(power_of_x))
            power_of_x = (power_of_x * x) % q
        return acc

    def has_bucket(self, group, elements: tuple[int, ...]) -> bool:
        """Whether a rotation bucket for this commitment is live (the
        invalidation regression tests probe this)."""
        return (group.p, tuple(elements)) in self._buckets

    def invalidate(self, group, elements: tuple[int, ...]) -> int:
        """Drop one commitment's whole bucket (key rotation).  Returns the
        number of image entries dropped."""
        bucket = self._buckets.pop((group.p, tuple(elements)), None)
        if bucket is None:
            return 0
        self.invalidations += 1
        return len(bucket.images)

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket.images) for bucket in self._buckets.values())

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self),
            "buckets": len(self._buckets),
        }


_SHARE_IMAGES = ShareImageCache()
register_cache_clearer(_SHARE_IMAGES.clear)


def share_image_cache() -> ShareImageCache:
    """The process-global share-image cache."""
    return _SHARE_IMAGES


def share_image_value(group, elements: tuple[int, ...], x: int) -> int:
    """``Π elements[k]^{x^k}`` through the cache when the perf layer is on."""
    if not perf_config().enabled:
        return _plain_image(group, elements, x)
    return _SHARE_IMAGES.image(group, elements, x)


def invalidate_share_images(group, elements: tuple[int, ...]) -> int:
    """Drop the rotation bucket of a superseded commitment (see
    :meth:`repro.pds.keys.PdsNodeState.install_share`)."""
    return _SHARE_IMAGES.invalidate(group, elements)
