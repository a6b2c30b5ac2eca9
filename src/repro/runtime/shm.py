"""Shared-memory weight store for the multi-process replica pool.

One :class:`SharedWeightStore` serializes an :class:`EncoderWeights` stack
into a single ``multiprocessing.shared_memory`` segment and describes the
layout in a picklable :class:`WeightManifest`. Replica worker processes
attach the segment and reconstruct *zero-copy, read-only* NumPy views —
every replica's engine reads the same physical weight bytes, so pool memory
is O(weights + replicas × activations) instead of O(replicas × weights).

This module is the repo's **only** legal user of
``multiprocessing.shared_memory`` (enforced by etlint rule ET501): segment
lifecycle bugs — double unlink, leaked ``/dev/shm`` files after a worker
crash, views outliving their mapping — are exactly the kind of thing that
must live behind one audited owner.

Lifecycle contract:

- ``create`` (parent) allocates and fills the segment; the creating store is
  the *owner* and the only one that should ``unlink``.
- ``attach`` (worker) maps an existing segment by manifest; attached stores
  ``close`` but never unlink, and they attach *untracked* — the stdlib
  resource tracker never learns about them — so a dying worker cannot tear
  the segment out from under its siblings (CPython's tracker unlinks any
  segment it saw at process exit).
- ``close``/``unlink`` are both idempotent and crash-tolerant: closing with
  live views degrades to a no-op (the mapping dies with the process) and
  unlinking twice — or after a crashed worker already vanished — is safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.config import ModelConfig
from repro.pruning.attention_aware import MatrixRole
from repro.runtime.weights import EncoderWeights, LayerWeights

#: Byte alignment of every array inside the segment (one cache line).
_ALIGN = 64

#: Per-layer array fields serialized into the segment, in a fixed order.
_ARRAY_FIELDS = EncoderWeights._ARRAY_FIELDS


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ShmEntry:
    """Location of one array inside the segment."""

    key: str  # "layer{i}.{field}" or "layer{i}.mask.{kind}"
    offset: int
    shape: tuple[int, ...]
    dtype: str  # numpy dtype.str, e.g. "<f8"

    @property
    def nbytes(self) -> int:
        """Byte length of the array at this entry."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape,
                                                               dtype=np.int64)))


@dataclass(frozen=True)
class WeightManifest:
    """Picklable description of one serialized weight segment.

    This is the sole hand-off between the pool parent and its replica
    workers: a worker that holds the manifest can reconstruct the full
    :class:`EncoderWeights` without touching the parent again.
    """

    segment: str  # shared-memory segment name
    total_bytes: int
    config: dict  # ModelConfig field dict
    num_layers: int
    entries: tuple[ShmEntry, ...]
    roles: tuple[tuple[int, str, str], ...]  # (layer, kind, MatrixRole value)

    def model_config(self) -> ModelConfig:
        """Rebuild the :class:`ModelConfig` the weights were built for."""
        return ModelConfig(**self.config)


def _layout(weights: EncoderWeights) -> tuple[list[tuple[str, np.ndarray]],
                                              tuple[ShmEntry, ...], int]:
    """Flatten the stack into (key, array) pairs plus their segment layout."""
    arrays: list[tuple[str, np.ndarray]] = []
    for i, lw in enumerate(weights.layers):
        for f in _ARRAY_FIELDS:
            arrays.append((f"layer{i}.{f}", np.ascontiguousarray(
                getattr(lw, f))))
        for kind in sorted(lw.masks):
            arrays.append((f"layer{i}.mask.{kind}", np.ascontiguousarray(
                lw.masks[kind])))
    entries = []
    offset = 0
    for key, a in arrays:
        offset = _aligned(offset)
        entries.append(ShmEntry(key=key, offset=offset,
                                shape=tuple(a.shape), dtype=a.dtype.str))
        offset += a.nbytes
    return arrays, tuple(entries), max(offset, 1)


_TRACKER_PATCH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without registering it with the tracker.

    The stdlib resource tracker unlinks every segment it has seen when its
    owning process tree exits — correct for owners, catastrophic for
    attachers: one worker exiting would destroy the weights under every
    other replica. Worse, spawn children share the parent's tracker
    process and its cache is a *set*, so register-then-unregister from an
    attacher silently erases the owner's registration (and a second
    attacher's unregister raises inside the tracker). CPython 3.13 grew
    ``SharedMemory(..., track=False)``; on earlier versions the reliable
    workaround (bpo-38119) is to suppress the registration up front.
    """
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original  # type: ignore[assignment]


class SharedWeightStore:
    """Owner/attacher handle over one shared-memory weight segment."""

    def __init__(self, manifest: WeightManifest,
                 shm: shared_memory.SharedMemory, owner: bool) -> None:
        self.manifest = manifest
        self._shm: shared_memory.SharedMemory | None = shm
        self._owner = owner
        self._unlinked = False

    # ---- construction -----------------------------------------------------

    @classmethod
    def create(cls, weights: EncoderWeights,
               name: str | None = None) -> "SharedWeightStore":
        """Serialize ``weights`` into a fresh segment; returns the owner."""
        arrays, entries, total = _layout(weights)
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        try:
            for (key, a), entry in zip(arrays, entries):
                dst = np.ndarray(entry.shape, dtype=entry.dtype,
                                 buffer=shm.buf, offset=entry.offset)
                dst[...] = a
            roles = tuple(
                (i, kind, lw.roles[kind].value)
                for i, lw in enumerate(weights.layers)
                for kind in sorted(lw.roles)
            )
            cfg = weights.config
            manifest = WeightManifest(
                segment=shm.name, total_bytes=total,
                config={"name": cfg.name, "num_layers": cfg.num_layers,
                        "d_model": cfg.d_model, "num_heads": cfg.num_heads,
                        "d_ff": cfg.d_ff, "vocab_size": cfg.vocab_size,
                        "max_seq_len": cfg.max_seq_len},
                num_layers=len(weights.layers),
                entries=entries, roles=roles,
            )
        except BaseException:  # allocation succeeded, fill failed: clean up
            shm.close()
            shm.unlink()
            raise
        return cls(manifest, shm, owner=True)

    @classmethod
    def attach(cls, manifest: WeightManifest) -> "SharedWeightStore":
        """Map an existing segment (worker side); never unlinks it."""
        shm = _attach_untracked(manifest.segment)
        return cls(manifest, shm, owner=False)

    # ---- views ------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Size of the mapped segment in bytes."""
        return self.manifest.total_bytes

    def view(self, key: str) -> np.ndarray:
        """Zero-copy read-only view of one array by manifest key."""
        if self._shm is None:
            raise ValueError("store is closed")
        for entry in self.manifest.entries:
            if entry.key == key:
                a = np.ndarray(entry.shape, dtype=entry.dtype,
                               buffer=self._shm.buf, offset=entry.offset)
                a.flags.writeable = False
                return a
        raise KeyError(f"no array {key!r} in segment {self.manifest.segment}")

    def weights(self) -> EncoderWeights:
        """Reconstruct the full stack as read-only zero-copy views.

        Engines treat weights as frozen after construction, so read-only
        views satisfy every engine (sparse-format compilation and the
        fused QKV stacks only *read* the arrays).
        """
        if self._shm is None:
            raise ValueError("store is closed")
        views = {e.key: self.view(e.key) for e in self.manifest.entries}
        layers = []
        for i in range(self.manifest.num_layers):
            kwargs = {f: views[f"layer{i}.{f}"] for f in _ARRAY_FIELDS}
            lw = LayerWeights(**kwargs)
            for key, a in views.items():
                prefix = f"layer{i}.mask."
                if key.startswith(prefix):
                    lw.masks[key[len(prefix):]] = a
            layers.append(lw)
        out = EncoderWeights(config=self.manifest.model_config(),
                             layers=layers)
        for i, kind, role in self.manifest.roles:
            out.layers[i].roles[kind] = MatrixRole(role)
        return out

    # ---- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment (idempotent; tolerates live views).

        With NumPy views still referencing the buffer the mmap cannot be
        released; the mapping then simply lives until the process exits,
        which is safe — only ``unlink`` frees the backing memory.
        """
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:
            return  # views still alive: mapping persists until process exit
        self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent, crash-tolerant)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            if self._shm is not None:
                self._shm.unlink()
            else:  # already closed: re-attach briefly just to unlink
                probe = _attach_untracked(self.manifest.segment)
                try:
                    probe.unlink()
                finally:
                    probe.close()
        except FileNotFoundError:
            pass  # already gone (double unlink / external cleanup)
        self.close()

    def __enter__(self) -> "SharedWeightStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with ``name`` is still linked.

    Used by the leak tests and the pool's drain assertion: after ``unlink``
    this must be False even if a crashed worker never closed its mapping.
    """
    try:
        probe = _attach_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True
