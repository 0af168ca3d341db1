"""Calibrated timing and sizing parameters.

All durations are **simulated seconds**.  The defaults reproduce the
micro-measurements published in §5.1 of the paper for the 1999 testbed
(8 × 300 MHz Pentium II, switched full-duplex 100 Mbps Ethernet, FreeBSD
2.2.6, UDP sockets):

* round-trip latency of a 1-byte message: 126 µs,
* lock acquisition: 178–272 µs,
* diff fetch: 313–1 544 µs depending on diff size,
* full (4 KB) page transfer: 1 308 µs,
* process creation on a remote host: 0.6–0.8 s,
* process-image migration rate: ≈ 8.1 MB/s.

The derivation of each constant from those measurements is documented on
the field.  ``benchmarks/test_micro_network.py`` asserts that the simulated
micro-operations land on the published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigurationError

#: Bytes per DSM page — TreadMarks uses the VM page size of the testbed.
PAGE_SIZE = 4096


@dataclass(frozen=True)
class NetworkParams:
    """Timing model of the switched full-duplex Ethernet NOW.

    A message from ``p`` to ``q`` crosses two links (``p``'s uplink and
    ``q``'s downlink).  Because the Ethernet is *switched*, the ports are
    independent; contention happens only on a per-port basis.  The time for
    one message is::

        one_way_latency + payload_bytes * per_byte

    where ``per_byte`` is the wire rate (100 Mbps = 0.08 µs/byte).
    """

    #: Fixed one-way cost of any message (UDP stack + interrupt + wire
    #: setup).  Calibrated so the 1-byte round trip is 126 µs.
    one_way_latency: float = 63.0e-6

    #: Wire time per payload byte: 100 Mbps full duplex = 12.5 MB/s.
    per_byte: float = 8.0 / 100.0e6

    #: Bytes of protocol header accounted per message (UDP/IP + TreadMarks
    #: header).  Affects traffic accounting, not latency (folded into
    #: ``one_way_latency``).
    header_bytes: int = 42

    #: Server-side occupancy of a page fetch (interrupt, page lookup, copy
    #: into the socket buffer).  Serializes concurrent requests at one node.
    page_service_server: float = 300.0e-6

    #: Requester-side fault-handling overhead (SIGSEGV dispatch, mprotect,
    #: installing the received copy).  Occupies only the faulting process.
    #: Calibrated jointly with the server share: one uncontended page
    #: transfer = RTT(126 µs) + wire(327.7 µs) + 300 µs + 554.3 µs
    #: = 1 308 µs, the §5.1 measurement.
    page_service_client: float = 554.3e-6

    #: Handler CPU consumed per lock acquisition (request processing at
    #: the manager + grant construction at the holder).  Calibrated from
    #: §5.1: manager-is-holder acquire = RTT 126 µs + 52 µs = 178 µs (the
    #: published minimum); the three-hop path lands at ~241 µs, inside the
    #: published 178-272 µs window.
    lock_service: float = 52.0e-6

    #: Fixed cost of creating or applying a diff regardless of size.
    #: Calibrated from the 313 µs minimum diff fetch: 313 − 126 ≈ 187 µs.
    diff_fixed: float = 187.0e-6

    #: Size-dependent cost of encoding + applying one diff byte (twin
    #: comparison, run-length encode, apply), *in addition to* wire time.
    #: Calibrated from the 1 544 µs full-page diff:
    #: (1 544 − 126 − 187 − 327.7) µs / 4096 B ≈ 0.22 µs/B.
    diff_per_byte: float = 0.22e-6

    #: Cut-through forwarding latency added per *extra* switch a message
    #: crosses in a hierarchical topology (header parse + port arbitration
    #: of a late-90s store-nothing switch).  The paper's single-switch star
    #: crosses zero extra switches, so this constant never enters the
    #: reference model.
    switch_hop_latency: float = 10.0e-6

    def validate(self) -> None:
        if self.one_way_latency < 0 or self.per_byte <= 0:
            raise ConfigurationError("network timing constants must be positive")
        if self.switch_hop_latency < 0:
            raise ConfigurationError("switch_hop_latency must be >= 0")

    def message_time(self, payload_bytes: int) -> float:
        """One-way delivery time of a message with ``payload_bytes`` payload."""
        return self.one_way_latency + payload_bytes * self.per_byte


@dataclass(frozen=True)
class DsmParams:
    """Parameters of the TreadMarks-like DSM engine."""

    #: Page size in bytes (VM page of the testbed).
    page_size: int = PAGE_SIZE

    #: Number of interval records accumulated before the runtime forces a
    #: garbage collection (stand-in for TreadMarks' exhausted consistency
    #: memory).  Adaptation-triggered GCs happen regardless of this limit.
    gc_interval_limit: int = 4096

    #: Bytes of a write notice on the wire (page id + interval stamp).
    write_notice_bytes: int = 12

    #: Bytes of one vector-clock entry on the wire.
    clock_entry_bytes: int = 4

    #: Bytes of a per-page descriptor in the page-location map shipped to a
    #: joining process (page id + owner + protocol bit).
    page_descriptor_bytes: int = 8

    #: CPU time to make a twin (copy of one page before first write).
    twin_time: float = 35.0e-6

    def validate(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigurationError("page_size must be a positive power of two")
        if self.gc_interval_limit < 1:
            raise ConfigurationError("gc_interval_limit must be >= 1")


@dataclass(frozen=True)
class MigrationParams:
    """libckpt-style process migration model (§5.3).

    The paper reports two direct cost components: creating a process on the
    new host (0.6–0.8 s) and copying the image at ≈ 8.1 MB/s.
    """

    #: Lower bound of remote process creation time.
    spawn_time_min: float = 0.6
    #: Upper bound of remote process creation time.
    spawn_time_max: float = 0.8
    #: Image copy rate in bytes per second (heap + stack).
    image_rate: float = 8.1e6
    #: Fixed process image overhead beyond the shared-data partition
    #: (code, runtime heap, stacks).
    image_overhead_bytes: int = 4 << 20

    def validate(self) -> None:
        if not (0 < self.spawn_time_min <= self.spawn_time_max):
            raise ConfigurationError("invalid spawn time range")
        if self.image_rate <= 0:
            raise ConfigurationError("image_rate must be positive")

    def spawn_time(self, u: float) -> float:
        """Spawn time for a uniform sample ``u`` in [0, 1)."""
        return self.spawn_time_min + u * (self.spawn_time_max - self.spawn_time_min)

    def copy_time(self, image_bytes: int) -> float:
        """Time to move a process image of ``image_bytes`` bytes."""
        return image_bytes / self.image_rate


@dataclass(frozen=True)
class CheckpointParams:
    """Checkpointing model (§4.3): master-only libckpt checkpoint to disk."""

    #: Sustained disk write rate for the checkpoint file (late-90s SCSI).
    disk_rate: float = 10.0e6
    #: Fixed cost of initiating a checkpoint (sync, file creation).
    fixed_cost: float = 50.0e-3

    def validate(self) -> None:
        if self.disk_rate <= 0:
            raise ConfigurationError("disk_rate must be positive")


@dataclass(frozen=True)
class FaultParams:
    """Failure detection and crash recovery (fail-stop model).

    The master probes every slave node over the ordinary NIC; a node that
    misses ``suspicion_threshold`` consecutive probes is declared crashed
    and recovery starts.  The interval/timeout trade detection latency
    against heartbeat traffic and false suspicions on congested links.
    """

    #: Period between heartbeat rounds (0 disables the detector even when
    #: the runtime asks for failure detection).
    heartbeat_interval: float = 50.0e-3

    #: How long after a probe the ack must arrive before it counts as a
    #: miss.  Must exceed an uncontended round trip (126 µs) by a healthy
    #: margin so handler-CPU contention does not produce false suspicions.
    heartbeat_timeout: float = 20.0e-3

    #: Consecutive missed probes before a node is declared crashed.
    suspicion_threshold: int = 3

    def validate(self) -> None:
        if self.heartbeat_interval < 0 or self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat interval/timeout must be positive")
        if self.suspicion_threshold < 1:
            raise ConfigurationError("suspicion_threshold must be >= 1")


@dataclass(frozen=True)
class PerfParams:
    """Options that change the model (all off / paper-faithful by default).

    Each field alters modelled message patterns and times, so the
    defaults are the paper's system — flat all-to-one synchronization on
    a single switched segment — and keep the Table 1/2 reproduction
    exact.  How a page moves is not among them: a fault, a leave drain
    and a checkpoint all pull it with one request/reply exchange.
    Host-side speed-ups (plan cache, run-encoded diffs, per-page interval
    index) are not options either: they are the implementation,
    bitwise invisible to every modelled output (``tests/golden.py``).
    """

    #: Give the synchronization tree ``barrier_radix`` children per node
    #: (children of pid i are k·i+1 … k·i+k; the master is the root).
    #: Off, the radix is the team size: one level, the master folds every
    #: arrival — the paper's flat all-to-one fold.  Deeper, interior
    #: processes fold their subtree's write notices before forwarding one
    #: combined arrival upward, and releases fan back down the same tree,
    #: so the master's link carries O(radix) instead of O(N) payloads per
    #: barrier.  See docs/PROTOCOL.md §11.
    barrier_tree: bool = False

    #: Fan-out of the combining tree (tree height is ⌈log_k N⌉).
    barrier_radix: int = 4

    #: Network topology: ``"star"`` is the paper's single switched
    #: full-duplex Ethernet segment; ``"fattree"`` hangs
    #: ``topology_radix``-node leaf switches off a root switch, with
    #: per-hop link occupation and cut-through forwarding through the
    #: intermediate switch.  See PROTOCOL.md §11.
    topology: str = "star"

    #: Nodes per leaf switch in the ``fattree`` topology.
    topology_radix: int = 8

    def validate(self) -> None:
        if self.barrier_radix < 2:
            raise ConfigurationError("barrier_radix must be >= 2")
        if self.topology not in ("star", "fattree"):
            raise ConfigurationError(
                f"unknown topology {self.topology!r} (expected 'star' or 'fattree')"
            )
        if self.topology_radix < 2:
            raise ConfigurationError("topology_radix must be >= 2")


#: Default location of the content-addressed scenario-result cache
#: (relative to the working directory; gitignored).
EXEC_CACHE_DIR = "benchmarks/results/cache"


@dataclass(frozen=True)
class SystemConfig:
    """Aggregate configuration for a simulated adaptive DSM system."""

    network: NetworkParams = field(default_factory=NetworkParams)
    dsm: DsmParams = field(default_factory=DsmParams)
    migration: MigrationParams = field(default_factory=MigrationParams)
    checkpoint: CheckpointParams = field(default_factory=CheckpointParams)
    faults: FaultParams = field(default_factory=FaultParams)
    perf: PerfParams = field(default_factory=PerfParams)

    #: Default grace period for leave events (seconds).  The paper calls
    #: 3 s "a reasonable grace period".
    grace_period: float = 3.0

    #: Master-side bookkeeping time charged per adapt event processed at an
    #: adaptation point (process table updates, id reassignment).
    adapt_fixed_cost: float = 5.0e-3

    #: RNG seed used for all stochastic model components (spawn times).
    #: Simulations are deterministic given the seed.
    seed: int = 0x5EED

    def validate(self) -> None:
        """Check all constituent parameter groups."""
        self.network.validate()
        self.dsm.validate()
        self.migration.validate()
        self.checkpoint.validate()
        self.faults.validate()
        self.perf.validate()
        if self.grace_period < 0:
            raise ConfigurationError("grace_period must be >= 0")

    def with_(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: The configuration matching the paper's testbed.
PAPER_CONFIG = SystemConfig()
