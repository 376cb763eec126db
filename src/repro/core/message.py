"""Messages and communication patterns (paper section 4).

A *communication pattern* is a directed multigraph: nodes are processors,
edges are messages, edge weights are message lengths in bytes.  Per
processor, the outgoing messages carry a *program order* — the order the
program would issue the sends — which the simulation algorithms respect.

Self-messages (``src == dst``) are legal: the paper notes that real
executions perform them as local memory transfers, which the simple LogGP
simulation deliberately ignores (section 6.3); the machine emulator charges
them a local-copy cost instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

if TYPE_CHECKING:  # networkx is optional (the ``test`` extra): only to_networkx uses it
    import networkx as nx

__all__ = ["Message", "CommPattern"]


@dataclass(frozen=True, slots=True)
class Message:
    """One message: ``src`` → ``dst``, ``size`` bytes, with a unique ``uid``.

    ``seq`` is the message's position in its sender's program order.
    """

    src: int
    dst: int
    size: int
    uid: int
    seq: int = 0

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError("processor ids must be non-negative")
        if self.size < 1:
            raise ValueError(f"message size must be >= 1 byte, got {self.size}")

    @property
    def is_local(self) -> bool:
        """True for a self-message (local memory transfer in real execution)."""
        return self.src == self.dst

    def __str__(self) -> str:
        return f"msg#{self.uid} P{self.src}->P{self.dst} ({self.size}B)"


class CommPattern:
    """An ordered collection of messages forming one communication step.

    Parameters
    ----------
    num_procs:
        Number of processors participating (ids ``0 .. num_procs-1``).
    edges:
        Optional iterable of ``(src, dst)`` or ``(src, dst, size)`` tuples,
        added in order (program order per sender follows iteration order).
    default_size:
        Byte length used for 2-tuples.
    """

    def __init__(
        self,
        num_procs: int,
        edges: Optional[Iterable[tuple]] = None,
        default_size: int = 1,
    ):
        if num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        self.num_procs = num_procs
        self._messages: list[Message] = []
        self._uid = itertools.count()
        self._per_src_seq: dict[int, int] = {}
        # cached remote/local views (hot in the simulators; invalidated by add)
        self._remote: Optional[tuple[Message, ...]] = None
        self._local: Optional[tuple[Message, ...]] = None
        self._records: Optional[tuple[tuple[int, int, int, int], ...]] = None
        if edges is not None:
            for edge in edges:
                if len(edge) == 2:
                    self.add(edge[0], edge[1], default_size)
                elif len(edge) == 3:
                    self.add(edge[0], edge[1], edge[2])
                else:
                    raise ValueError(f"edge must be (src, dst[, size]), got {edge!r}")

    # -- construction ---------------------------------------------------------
    def add(self, src: int, dst: int, size: int = 1) -> Message:
        """Append a message; returns the :class:`Message` created."""
        if not (0 <= src < self.num_procs):
            raise ValueError(f"src {src} out of range 0..{self.num_procs - 1}")
        if not (0 <= dst < self.num_procs):
            raise ValueError(f"dst {dst} out of range 0..{self.num_procs - 1}")
        seq = self._per_src_seq.get(src, 0)
        msg = Message(src=src, dst=dst, size=size, uid=next(self._uid), seq=seq)
        self._per_src_seq[src] = seq + 1
        self._messages.append(msg)
        self._remote = self._local = self._records = None
        return msg

    # -- views ----------------------------------------------------------------
    @property
    def messages(self) -> tuple[Message, ...]:
        """All messages in insertion order."""
        return tuple(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)

    def remote_messages(self) -> tuple[Message, ...]:
        """Messages with ``src != dst`` (the ones LogGP simulation models)."""
        remote = self._remote
        if remote is None:
            remote = self._remote = tuple(
                m for m in self._messages if not m.is_local
            )
        return remote

    def remote_records(self) -> tuple[tuple[int, int, int, int], ...]:
        """Remote messages as ``(src, dst, size, uid)`` records.

        The step simulators' input (:mod:`repro.kernel.fastsim`,
        :mod:`repro.kernel.fastdes`).  A message's ``uid`` is its position
        in :attr:`messages`, so ``messages[uid]`` recovers it.
        """
        records = self._records
        if records is None:
            records = self._records = tuple(
                (m.src, m.dst, m.size, m.uid) for m in self.remote_messages()
            )
        return records

    def local_messages(self) -> tuple[Message, ...]:
        """Self-messages (local copies in real execution)."""
        local = self._local
        if local is None:
            local = self._local = tuple(m for m in self._messages if m.is_local)
        return local

    def sends_of(self, proc: int) -> tuple[Message, ...]:
        """Outgoing messages of ``proc`` in program order."""
        return tuple(m for m in self._messages if m.src == proc)

    def recvs_of(self, proc: int) -> tuple[Message, ...]:
        """Incoming messages of ``proc`` in insertion order."""
        return tuple(m for m in self._messages if m.dst == proc)

    def out_degree(self, proc: int) -> int:
        """Number of messages ``proc`` sends."""
        return sum(1 for m in self._messages if m.src == proc)

    def in_degree(self, proc: int) -> int:
        """Number of messages ``proc`` receives."""
        return sum(1 for m in self._messages if m.dst == proc)

    def participants(self) -> tuple[int, ...]:
        """Sorted processor ids that send or receive at least one message."""
        procs = {m.src for m in self._messages} | {m.dst for m in self._messages}
        return tuple(sorted(procs))

    def total_bytes(self) -> int:
        """Sum of message sizes (remote + local)."""
        return sum(m.size for m in self._messages)

    # -- graph analysis ---------------------------------------------------------
    def to_networkx(self, include_local: bool = False) -> "nx.MultiDiGraph":
        """The pattern as a :class:`networkx.MultiDiGraph` (edge attr ``size``)."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(range(self.num_procs))
        for m in self._messages:
            if include_local or not m.is_local:
                graph.add_edge(m.src, m.dst, key=m.uid, size=m.size)
        return graph

    def has_cycle(self) -> bool:
        """True if the remote-message graph contains a directed cycle.

        Cyclic patterns deadlock the worst-case algorithm unless it breaks
        the cycle with forced sends (paper section 4.2).  Kahn's algorithm:
        repeatedly retire processors with no unretired incoming edge; a
        cycle is whatever can never be retired.
        """
        indegree = [0] * self.num_procs
        successors: list[list[int]] = [[] for _ in range(self.num_procs)]
        for m in self._messages:
            if not m.is_local:
                successors[m.src].append(m.dst)
                indegree[m.dst] += 1
        ready = [p for p in range(self.num_procs) if indegree[p] == 0]
        retired = 0
        while ready:
            retired += 1
            for q in successors[ready.pop()]:
                indegree[q] -= 1
                if indegree[q] == 0:
                    ready.append(q)
        return retired < self.num_procs

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed patterns (defensive checks)."""
        seen: set[int] = set()
        per_src: dict[int, list[int]] = {}
        for m in self._messages:
            if m.uid in seen:
                raise ValueError(f"duplicate message uid {m.uid}")
            seen.add(m.uid)
            per_src.setdefault(m.src, []).append(m.seq)
        for src, seqs in per_src.items():
            if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
                raise ValueError(f"program order of P{src} is not strictly increasing")

    # -- misc -------------------------------------------------------------------
    def scaled(self, factor: float) -> "CommPattern":
        """Copy with every message size scaled (min 1 byte)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        out = CommPattern(self.num_procs)
        for m in self._messages:
            out.add(m.src, m.dst, max(1, round(m.size * factor)))
        return out

    @classmethod
    def from_adjacency(
        cls, sends: Mapping[int, Sequence[tuple[int, int]]], num_procs: int
    ) -> "CommPattern":
        """Build from ``{src: [(dst, size), ...]}`` in per-source program order.

        Sources are interleaved in ascending id order, which only matters
        for global insertion order — per-sender program order is preserved.
        """
        out = cls(num_procs)
        for src in sorted(sends):
            for dst, size in sends[src]:
                out.add(src, dst, size)
        return out

    def __repr__(self) -> str:
        return (
            f"CommPattern(P={self.num_procs}, messages={len(self._messages)}, "
            f"bytes={self.total_bytes()})"
        )
