"""Channel trace record / replay.

The paper's "trace-based simulations" (Fig 3, Fig 11, Fig 16) measure CSI on
the testbed and feed it back into offline evaluation.  Our substitute records
sequences of channel matrices from a one-topology
:class:`~repro.channel.batch.ChannelBatch` into an npz-serializable
:class:`ChannelTrace` that experiments replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..io import atomic_write
from .batch import ChannelBatch


@dataclass(frozen=True)
class ChannelTrace:
    """A recorded sequence of channel snapshots.

    Attributes
    ----------
    h:
        Complex array ``(n_blocks, n_clients, n_antennas)``.
    block_duration_s:
        Time between consecutive snapshots (one coherence block).
    noise_mw:
        Receiver noise floor the trace was recorded under.
    metadata:
        Free-form provenance (scenario name, seed, ...).
    """

    h: np.ndarray
    block_duration_s: float
    noise_mw: float
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.h, dtype=complex)
        if arr.ndim != 3:
            raise ValueError("trace must have shape (n_blocks, n_clients, n_antennas)")
        if self.block_duration_s <= 0:
            raise ValueError("block_duration_s must be positive")
        if self.noise_mw <= 0:
            raise ValueError("noise_mw must be positive")
        object.__setattr__(self, "h", arr)

    @property
    def n_blocks(self) -> int:
        return self.h.shape[0]

    @property
    def n_clients(self) -> int:
        return self.h.shape[1]

    @property
    def n_antennas(self) -> int:
        return self.h.shape[2]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.h)

    def block(self, index: int) -> np.ndarray:
        """Channel matrix for coherence block ``index``."""
        return self.h[index]

    def save(self, path) -> Path:
        """Serialize to an ``.npz`` file (atomically: tmp + ``os.replace``)."""
        meta_keys = list(self.metadata)
        meta_vals = [str(self.metadata[k]) for k in meta_keys]

        def write_to(tmp: Path) -> None:
            # An open handle keeps numpy from appending ".npz" to the
            # temp file's name and keeps the rename below atomic.
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    h=self.h,
                    block_duration_s=self.block_duration_s,
                    noise_mw=self.noise_mw,
                    meta_keys=np.asarray(meta_keys, dtype=object),
                    meta_vals=np.asarray(meta_vals, dtype=object),
                )

        return atomic_write(Path(path), write_to)

    @classmethod
    def load(cls, path) -> "ChannelTrace":
        """Deserialize from an ``.npz`` file produced by :meth:`save`."""
        with np.load(Path(path), allow_pickle=True) as data:
            metadata = dict(zip(data["meta_keys"].tolist(), data["meta_vals"].tolist()))
            return cls(
                h=data["h"],
                block_duration_s=float(data["block_duration_s"]),
                noise_mw=float(data["noise_mw"]),
                metadata=metadata,
            )


def record_trace(
    channel: ChannelBatch,
    n_blocks: int,
    block_duration_s: float,
    metadata: dict | None = None,
) -> ChannelTrace:
    """Record ``n_blocks`` consecutive coherence blocks from ``channel``, a
    batch of one topology.

    The channel's fading state advances as a side effect (like time passing
    on the testbed while the trace is captured).
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    if channel.n_items != 1:
        raise ValueError(f"record_trace needs a batch of one, got {channel.n_items}")
    snapshots = []
    for index in range(n_blocks):
        snapshots.append(channel.channel_matrices()[0])
        if index < n_blocks - 1:
            channel.advance(block_duration_s)
    return ChannelTrace(
        h=np.stack(snapshots),
        block_duration_s=block_duration_s,
        noise_mw=channel.radio.noise_mw,
        metadata=metadata or {},
    )
